(** Local migration of existing flows (paper Definition 1 and §IV-A).

    When a flow f_a of an update event finds every link of a desired path
    congested-free except some set E^c, the network can still admit it by
    migrating a subset F_a of the existing flows crossing E^c to other
    parts of the network. Choosing the minimum-traffic F_a is
    NP-complete (the paper cites [8]); this module implements the greedy
    approximation: per congested link, relocatable flows are taken in a
    configurable order until the freed bandwidth closes the capacity gap
    (constraint (3)), and every migrated flow is moved to a path that is
    itself congestion-free (constraint (5)) and avoids the whole desired
    path, which guarantees monotone progress. *)

type move = {
  flow_id : int;
  from_path : Path.t;
  to_path : Path.t;
  size_mbit : float;  (** Migrated traffic volume — the cost unit. *)
  demand_mbps : float;  (** Bandwidth freed on the vacated links. *)
}

type order =
  | Best_fit_first
      (** The default: if one flow's demand covers the remaining gap,
          migrate the smallest-sized such flow; otherwise take the flow
          with the best size-per-Mbps ratio and recurse. Closes gaps with
          few moves ("a few existing flows", §I) at near-minimal migrated
          traffic. *)
  | Smallest_size_first
      (** Strictly cheapest-traffic-first; can migrate many mice per gap
          (ablation). *)
  | Largest_demand_first
      (** Close the gap with the fewest moves regardless of traffic
          (ablation). *)
  | Best_ratio_first
      (** Smallest size per Mbps freed (ablation). *)

val order_name : order -> string
val all_orders : order list

type blocked =
  | Cannot_free of Graph.edge
      (** No relocatable subset closes this link's gap. *)

val moves_cost_mbit : move list -> float
(** Sum of migrated traffic — sum(F_a) of Definition 2. *)

val clear_path :
  ?order:order ->
  ?policy:Routing.policy ->
  ?rng:Prng.t ->
  ?forbidden:(Path.t -> bool) ->
  ?work_units:int ref ->
  Net_state.t ->
  demand:float ->
  path:Path.t ->
  exclude:(int -> bool) ->
  (move list, blocked) result
(** [clear_path net ~demand ~path ~exclude] migrates existing flows until
    every edge of [path] has residual >= demand, mutating [net] (the
    chosen reroutes are applied). [exclude] marks flows that must not be
    migrated (the event's own flows). On [Error _] the state is rolled
    back to exactly its entry value. [work_units], when given, is
    incremented once per feasibility probe — the planner's virtual
    plan-time meter. [policy]/[rng] choose relocation targets (default
    first-fit).

    Links pinned by {!Net_state.edge_pinned} (a single-homed host's
    access links) are refused up front: when [path] crosses one whose
    gap is still positive once the clear reaches it, the moves already
    applied are rolled back and [Error (Cannot_free e)] is returned
    without scanning that link's flows. This is exact, not a heuristic:
    every flow on a pinned link starts or ends at its host, so each of
    its candidate paths crosses the link, which lies on [path] — no
    candidate satisfies constraint (5), and the scan it replaces could
    only end stuck. That scan would read no edge outside the probe read
    set [path]'s congestion check already recorded, draw nothing from
    [rng] and count no [work_units], so results, read sets and work
    meters are unchanged; only {!Nu_obs.Counters.Path_enumerations}
    no longer counts the skipped candidate lookups. *)
