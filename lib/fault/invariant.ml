module Trace = Nu_obs.Trace
module Counters = Nu_obs.Counters

type violation = { name : string; detail : string }

let check net =
  Counters.incr Counters.Invariant_checks;
  let acc = ref [] in
  let add name detail = acc := { name; detail } :: !acc in
  (* Blackhole-freedom: no placed flow crosses a disabled edge. With
     every edge up there is nothing to find, so skip the flow pass. *)
  let g = Net_state.graph net in
  let rec any_down e =
    e < Graph.edge_count g && (Net_state.edge_disabled net e || any_down (e + 1))
  in
  if any_down 0 then
    Net_state.iter_flows net (fun (p : Net_state.placed) ->
        List.iter
          (fun (e : Graph.edge) ->
            if Net_state.edge_disabled net e.Graph.id then
              add "blackhole"
                (Printf.sprintf "flow %d crosses disabled edge %d"
                   p.Net_state.record.Flow_record.id e.Graph.id))
          (Path.edges p.Net_state.path));
  (* Capacity non-violation: every residual >= 0. *)
  for e = 0 to Graph.edge_count g - 1 do
    let r = Net_state.residual net e in
    if r < -1e-6 then
      add "capacity" (Printf.sprintf "edge %d residual %.3f < 0" e r)
  done;
  (* Routing/placement agreement: full structural recomputation. *)
  (match Net_state.invariants_ok net with
  | Ok () -> ()
  | Error msg -> add "consistency" msg);
  let violations = List.rev !acc in
  if Trace.enabled () then
    List.iter
      (fun v ->
        Trace.instant "invariant_violation"
          ~attrs:[ ("name", Trace.Str v.name); ("detail", Trace.Str v.detail) ])
      violations;
  violations

let pp ppf v = Format.fprintf ppf "%s: %s" v.name v.detail
