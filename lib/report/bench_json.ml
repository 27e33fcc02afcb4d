module J = Ditto_util.Jsonx

let schema_version = 9

(* Per-experiment scheduling telemetry (v5): how long the stage took, how
   many domains the pool offered it, and what fraction of (domains x wall)
   was spent executing tasks. *)
type experiment = {
  exp_name : string;
  exp_seconds : float;
  exp_domains : int;
  exp_parallel_efficiency : float;
}

(* v6 additions: the engine's process-wide event-heap high-water mark (the
   synth scaling work pins DES memory behaviour) and each cloned app's
   tier count, so wide-graph runs are self-describing. v4 and v7-v9 added
   one flat section per validation gate, now all held in [gates]. *)
type input = {
  domains : int;
  total_seconds : float;
  experiments : experiment list;
  clone_seconds : (string * float) list;
  mean_error_pct : (string * float) list;
  tuning : (string * J.t) list;
  metrics : (string * float) list;
  scorecards : Scorecard.t list;
  gates : (Gate.t * (string * float) list) list;
  peak_heap_events : int;
  tier_counts : (string * int) list;
}

let num_obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.Num v)) kvs)

let assemble i =
  J.Obj
    ([
      ("schema_version", J.int schema_version);
      ("domains", J.int i.domains);
      ("total_seconds", J.Num i.total_seconds);
      ( "experiments",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("name", J.Str e.exp_name);
                   ("seconds", J.Num e.exp_seconds);
                   ("domains", J.int e.exp_domains);
                   ("parallel_efficiency", J.Num e.exp_parallel_efficiency);
                 ])
             i.experiments) );
      ("clone_seconds", num_obj i.clone_seconds);
      ("mean_error_pct", num_obj i.mean_error_pct);
      ("tuning", J.Obj i.tuning);
      ("metrics", num_obj i.metrics);
      ( "scorecards",
        J.Obj (List.map (fun (s : Scorecard.t) -> (s.Scorecard.app, Scorecard.to_json s)) i.scorecards)
      );
    ]
  @ List.map
      (fun g -> (Gate.name g, num_obj (Option.value ~default:[] (List.assoc_opt g i.gates))))
      Gate.all
  @ [
      ("engine", J.Obj [ ("peak_heap_events", J.int i.peak_heap_events) ]);
      ("tier_counts", J.Obj (List.map (fun (k, v) -> (k, J.int v)) i.tier_counts));
    ])

(* Shape checking: a tiny combinator layer over Jsonx keeps the error
   message pointed at the offending path. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field path json name shape =
  match J.member name json with
  | J.Null -> Error (Printf.sprintf "%s.%s: missing" path name)
  | v -> shape (path ^ "." ^ name) v

let num path = function J.Num _ -> Ok () | _ -> Error (path ^ ": expected number")
let str path = function J.Str _ -> Ok () | _ -> Error (path ^ ": expected string")
let bool path = function J.Bool _ -> Ok () | _ -> Error (path ^ ": expected bool")

let obj_of shape path = function
  | J.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let* () = acc in
          shape (path ^ "." ^ k) v)
        (Ok ()) kvs
  | _ -> Error (path ^ ": expected object")

let list_of shape path = function
  | J.List vs ->
      List.fold_left
        (fun (acc, i) v ->
          (( let* () = acc in
             shape (Printf.sprintf "%s[%d]" path i) v ),
            i + 1))
        (Ok (), 0) vs
      |> fst
  | _ -> Error (path ^ ": expected list")

let any _ _ = Ok ()

let experiment path v =
  let* () = field path v "name" str in
  let* () = field path v "seconds" num in
  let* () = field path v "domains" num in
  field path v "parallel_efficiency" num

let scorecard_row path v =
  let* () = field path v "tier" str in
  let* () = field path v "metric" str in
  let* () = field path v "actual" num in
  let* () = field path v "synthetic" num in
  let* () = field path v "err_pct" num in
  let* () = field path v "pass" bool in
  match J.member "knob_group" v with
  | J.Null | J.Str _ -> Ok ()
  | _ -> Error (path ^ ".knob_group: expected string or null")

let scorecard path v =
  let* () = field path v "app" str in
  let* () = field path v "label" str in
  let* () = field path v "target_pct" num in
  let* () = field path v "passed" bool in
  let* () = field path v "rows" (list_of scorecard_row) in
  field path v "attribution" (obj_of num)

let validate json =
  let path = "$" in
  let* () =
    match J.member "schema_version" json with
    | J.Num v when int_of_float v = schema_version -> Ok ()
    | J.Num v -> Error (Printf.sprintf "$.schema_version: expected %d, got %g" schema_version v)
    | _ -> Error "$.schema_version: missing or not a number"
  in
  let* () = field path json "domains" num in
  let* () = field path json "total_seconds" num in
  let* () = field path json "experiments" (list_of experiment) in
  let* () = field path json "clone_seconds" (obj_of num) in
  let* () = field path json "mean_error_pct" (obj_of num) in
  let* () = field path json "tuning" (obj_of any) in
  let* () = field path json "metrics" (obj_of num) in
  let* () = field path json "scorecards" (obj_of scorecard) in
  let* () =
    List.fold_left
      (fun acc g ->
        let* () = acc in
        field path json (Gate.name g) (obj_of num))
      (Ok ()) Gate.all
  in
  let* () =
    field path json "engine" (fun path v -> field path v "peak_heap_events" num)
  in
  field path json "tier_counts" (obj_of num)
