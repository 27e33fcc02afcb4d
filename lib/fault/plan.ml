module J = Ditto_util.Jsonx

type kind =
  | Crash of { down_for : float }
  | Slowdown of { factor : float; lasts : float }
  | Link of { add_latency : float; drop : float; lasts : float }
  | Partition of { lasts : float }

type event = { at : float; tier : string; kind : kind }
type t = { plan_name : string; events : event list }

let client_tier = "client"

let check_event e =
  let bad fmt = Printf.ksprintf invalid_arg ("Ditto_fault.Plan: " ^^ fmt) in
  if e.at < 0.0 then bad "event on %S has negative time %g" e.tier e.at;
  match e.kind with
  | Crash { down_for } ->
      if down_for <= 0.0 then bad "crash of %S has non-positive down_for %g" e.tier down_for
  | Slowdown { factor; lasts } ->
      if factor < 1.0 then bad "slowdown of %S has factor %g < 1" e.tier factor;
      if lasts <= 0.0 then bad "slowdown of %S has non-positive duration %g" e.tier lasts
  | Link { add_latency; drop; lasts } ->
      if add_latency < 0.0 then bad "link event on %S has negative latency %g" e.tier add_latency;
      if drop < 0.0 || drop > 1.0 then bad "link event on %S has drop %g outside [0,1]" e.tier drop;
      if lasts <= 0.0 then bad "link event on %S has non-positive duration %g" e.tier lasts
  | Partition { lasts } ->
      if lasts <= 0.0 then bad "partition of %S has non-positive duration %g" e.tier lasts

let make ~name events =
  List.iter check_event events;
  { plan_name = name; events = List.stable_sort (fun a b -> compare a.at b.at) events }

let validate ?duration ?(strict = false) ~tiers t =
  List.iter
    (fun e ->
      if e.tier <> client_tier && not (List.mem e.tier tiers) then
        invalid_arg
          (Printf.sprintf "Ditto_fault.Plan %S: unknown tier %S (known: %s)" t.plan_name e.tier
             (String.concat ", " (client_tier :: tiers)));
      match duration with
      | Some d when e.at >= d ->
          let msg =
            Printf.sprintf
              "Ditto_fault.Plan %S: event on %S at %gs is at/past the %gs load duration and will \
               never fire"
              t.plan_name e.tier e.at d
          in
          if strict then invalid_arg msg else Printf.eprintf "warning: %s\n%!" msg
      | _ -> ())
    t.events

(* Canonical plans. The mid tier splits the graph; the leaf is the last tier
   of the spec (deepest dependency for the entry's fan-out). *)

let nth_tier tiers i =
  match List.nth_opt tiers i with
  | Some t -> t
  | None -> invalid_arg "Ditto_fault.Plan: canonical plan needs a non-empty tier list"

let kill_mid_tier ?(down_frac = 0.25) ~duration ~tiers () =
  let mid = nth_tier tiers (List.length tiers / 2) in
  make ~name:"kill-mid-tier"
    [ { at = 0.3 *. duration; tier = mid; kind = Crash { down_for = down_frac *. duration } } ]

let brownout_leaf ?(factor = 3.0) ~duration ~tiers () =
  let leaf = nth_tier tiers (List.length tiers - 1) in
  make ~name:"brownout-leaf"
    [ { at = 0.2 *. duration; tier = leaf; kind = Slowdown { factor; lasts = 0.5 *. duration } } ]

let flaky_link ?(drop = 0.08) ?(add_latency = 200e-6) ~duration ~tiers () =
  let entry = nth_tier tiers 0 in
  make ~name:"flaky-link"
    [
      {
        at = 0.15 *. duration;
        tier = entry;
        kind = Link { add_latency; drop; lasts = 0.6 *. duration };
      };
    ]

let canonical ~duration ~tiers =
  [
    kill_mid_tier ~duration ~tiers ();
    brownout_leaf ~duration ~tiers ();
    flaky_link ~duration ~tiers ();
  ]

(* JSON grammar (DESIGN.md §9):
   { "name": "...",
     "events": [ { "at": s, "tier": "...", "kind": "crash", "down_for": s }
               | { ..., "kind": "slowdown", "factor": x, "for": s }
               | { ..., "kind": "link", "add_latency": s, "drop": p, "for": s }
               | { ..., "kind": "partition", "for": s } ] } *)

let kind_to_json = function
  | Crash { down_for } -> [ ("kind", J.Str "crash"); ("down_for", J.Num down_for) ]
  | Slowdown { factor; lasts } ->
      [ ("kind", J.Str "slowdown"); ("factor", J.Num factor); ("for", J.Num lasts) ]
  | Link { add_latency; drop; lasts } ->
      [
        ("kind", J.Str "link");
        ("add_latency", J.Num add_latency);
        ("drop", J.Num drop);
        ("for", J.Num lasts);
      ]
  | Partition { lasts } -> [ ("kind", J.Str "partition"); ("for", J.Num lasts) ]

let to_json t =
  J.Obj
    [
      ("name", J.Str t.plan_name);
      ( "events",
        J.list
          (fun e -> J.Obj ([ ("at", J.Num e.at); ("tier", J.Str e.tier) ] @ kind_to_json e.kind))
          t.events );
    ]

let kind_of_json j =
  let num field = J.to_float (J.member field j) in
  match J.to_str (J.member "kind" j) with
  | "crash" -> Crash { down_for = num "down_for" }
  | "slowdown" -> Slowdown { factor = num "factor"; lasts = num "for" }
  | "link" -> Link { add_latency = num "add_latency"; drop = num "drop"; lasts = num "for" }
  | "partition" -> Partition { lasts = num "for" }
  | k -> raise (J.Parse_error (Printf.sprintf "fault plan: unknown event kind %S" k))

let of_json json =
  let name = J.to_str (J.member "name" json) in
  let events =
    J.to_list (J.member "events" json)
    |> List.map (fun j ->
           {
             at = J.to_float (J.member "at" j);
             tier = J.to_str (J.member "tier" j);
             kind = kind_of_json j;
           })
  in
  make ~name events

let load path = of_json (J.load path)

let save ~path t = J.save path (to_json t)
