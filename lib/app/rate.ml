module J = Ditto_util.Jsonx
module Rng = Ditto_util.Rng
module Dist = Ditto_util.Dist

(* Rate profiles as data, mirroring Ditto_fault.Plan: a profile is a
   multiplier over the load's base qps, evaluated on the DES clock
   relative to the start of load. Shapes compose multiplicatively, so
   "diurnal swing plus a flash crowd" is just both terms in the list and
   the identity profile is the empty product. *)

type term =
  | Constant
  | Sinusoid of { amplitude : float; period : float; phase : float }
  | Ramp of { to_mult : float; over : float }
  | Spike of { at : float; rise : float; hold : float; fall : float; mult : float }
  | Piecewise of (float * float) list

type burst = { batch_mean : float }
type t = { profile_name : string; shape : term list; burst : burst option }

let check_term name term =
  let bad fmt = Printf.ksprintf invalid_arg ("Ditto_app.Rate %S: " ^^ fmt) name in
  match term with
  | Constant -> ()
  | Sinusoid { amplitude; period; phase = _ } ->
      if amplitude < 0.0 || amplitude > 1.0 then
        bad "sinusoid amplitude %g outside [0,1] (rate would go negative)" amplitude;
      if period <= 0.0 then bad "sinusoid period %g must be positive" period
  | Ramp { to_mult; over } ->
      if to_mult < 0.0 then bad "ramp target multiplier %g is negative" to_mult;
      if over <= 0.0 then bad "ramp duration %g must be positive" over
  | Spike { at; rise; hold; fall; mult } ->
      if at < 0.0 then bad "spike at negative time %g" at;
      if rise < 0.0 || hold < 0.0 || fall < 0.0 then
        bad "spike rise/hold/fall must be non-negative (got %g/%g/%g)" rise hold fall;
      if rise +. hold +. fall <= 0.0 then bad "spike has zero extent";
      if mult < 0.0 then bad "spike multiplier %g is negative" mult
  | Piecewise steps ->
      if steps = [] then bad "piecewise profile has no steps";
      List.iter
        (fun (at, m) ->
          if at < 0.0 then bad "piecewise step at negative time %g" at;
          if m < 0.0 then bad "piecewise multiplier %g is negative" m)
        steps;
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if b <= a then bad "piecewise steps not strictly increasing (%g then %g)" a b;
            sorted rest
        | _ -> ()
      in
      sorted steps

let check t =
  if t.profile_name = "" then invalid_arg "Ditto_app.Rate: empty profile name";
  List.iter (check_term t.profile_name) t.shape;
  match t.burst with
  | Some { batch_mean } ->
      if batch_mean < 1.0 then
        Printf.ksprintf invalid_arg "Ditto_app.Rate %S: burst batch mean %g < 1" t.profile_name
          batch_mean
  | None -> ()

let make ?burst ~name shape =
  let t = { profile_name = name; shape; burst } in
  check t;
  t

let constant = { profile_name = "constant"; shape = []; burst = None }

let term_mult term t =
  match term with
  | Constant -> 1.0
  | Sinusoid { amplitude; period; phase } ->
      1.0 +. (amplitude *. sin ((2.0 *. Float.pi *. t /. period) +. phase))
  | Ramp { to_mult; over } ->
      if t <= 0.0 then 1.0
      else if t >= over then to_mult
      else 1.0 +. ((to_mult -. 1.0) *. t /. over)
  | Spike { at; rise; hold; fall; mult } ->
      if t <= at then 1.0
      else if t < at +. rise then 1.0 +. ((mult -. 1.0) *. (t -. at) /. rise)
      else if t <= at +. rise +. hold then mult
      else if fall > 0.0 && t < at +. rise +. hold +. fall then
        mult +. ((1.0 -. mult) *. (t -. at -. rise -. hold) /. fall)
      else 1.0
  | Piecewise steps ->
      let rec last acc = function
        | (at, m) :: rest when at <= t -> last m rest
        | _ -> acc
      in
      last 1.0 steps

let mult_at t ~t:rel =
  Float.max 0.0 (List.fold_left (fun acc term -> acc *. term_mult term rel) 1.0 t.shape)

let term_peak = function
  | Constant -> 1.0
  | Sinusoid { amplitude; _ } -> 1.0 +. amplitude
  | Ramp { to_mult; _ } -> Float.max 1.0 to_mult
  | Spike { mult; _ } -> Float.max 1.0 mult
  | Piecewise steps -> List.fold_left (fun acc (_, m) -> Float.max acc m) 1.0 steps

(* Upper bound: the per-term peaks need not align in time, so the product
   of peaks bounds (and for canonical single-term profiles equals) the
   true peak multiplier. *)
let peak_mult t = List.fold_left (fun acc term -> acc *. term_peak term) 1.0 t.shape

let is_constant t =
  t.burst = None && List.for_all (fun term -> term = Constant) t.shape

let mean_mult t ~duration =
  if is_constant t then 1.0
  else begin
    let n = 1024 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. mult_at t ~t:((float_of_int i +. 0.5) *. duration /. float_of_int n)
    done;
    !acc /. float_of_int n
  end

(* Profile algebra: multiplicative composition and scalar scaling, both
   closed over the JSON grammar below. *)

let compose ?name a b =
  let name =
    match name with Some n -> n | None -> a.profile_name ^ "+" ^ b.profile_name
  in
  let burst =
    match (a.burst, b.burst) with
    | (Some _ as x), _ -> x
    | None, x -> x
  in
  make ?burst ~name (a.shape @ b.shape)

let scale ?name k t =
  if k < 0.0 then invalid_arg "Ditto_app.Rate.scale: negative factor";
  let name = match name with Some n -> n | None -> t.profile_name in
  make ?burst:t.burst ~name (Piecewise [ (0.0, k) ] :: t.shape)

(* --- Arrival sampling -------------------------------------------------

   Open-loop arrivals are an inhomogeneous Poisson process thinned per
   interval: the gap is drawn exponentially at the rate in force when the
   previous arrival fired (rate changes within one gap are picked up at
   the next draw, which at simulation rates means within microseconds).
   Bursty profiles batch arrivals geometrically and stretch the gap by
   the batch mean so the offered rate is preserved. One RNG draw per gap
   plus one per batch — no per-client state, so millions of simulated
   users cost nothing beyond the arrivals themselves. *)

type arrival = { gap : float; batch : int }

let next_arrival t rng ~base_qps ~t:rel =
  let rate = Float.max 1e-6 (base_qps *. mult_at t ~t:rel) in
  match t.burst with
  | None -> { gap = Dist.exponential rng ~mean:(1.0 /. rate); batch = 1 }
  | Some { batch_mean } ->
      let gap = Dist.exponential rng ~mean:(batch_mean /. rate) in
      { gap; batch = Dist.geometric rng ~mean:batch_mean }

(* JSON grammar (DESIGN.md §14):
   { "name": "...",
     "shape": [ { "kind": "constant" }
              | { "kind": "sinusoid", "amplitude": a, "period": s, "phase": r }
              | { "kind": "ramp", "to": m, "over": s }
              | { "kind": "spike", "at": s, "rise": s, "hold": s, "fall": s, "mult": m }
              | { "kind": "piecewise", "steps": [[s, m], ...] } ],
     "burst": { "batch_mean": m } }            (burst is optional) *)

let term_to_json = function
  | Constant -> J.Obj [ ("kind", J.Str "constant") ]
  | Sinusoid { amplitude; period; phase } ->
      J.Obj
        [
          ("kind", J.Str "sinusoid");
          ("amplitude", J.Num amplitude);
          ("period", J.Num period);
          ("phase", J.Num phase);
        ]
  | Ramp { to_mult; over } ->
      J.Obj [ ("kind", J.Str "ramp"); ("to", J.Num to_mult); ("over", J.Num over) ]
  | Spike { at; rise; hold; fall; mult } ->
      J.Obj
        [
          ("kind", J.Str "spike");
          ("at", J.Num at);
          ("rise", J.Num rise);
          ("hold", J.Num hold);
          ("fall", J.Num fall);
          ("mult", J.Num mult);
        ]
  | Piecewise steps ->
      J.Obj
        [
          ("kind", J.Str "piecewise");
          ("steps", J.list (fun (at, m) -> J.List [ J.Num at; J.Num m ]) steps);
        ]

let to_json t =
  J.Obj
    ([ ("name", J.Str t.profile_name); ("shape", J.list term_to_json t.shape) ]
    @
    match t.burst with
    | None -> []
    | Some { batch_mean } -> [ ("burst", J.Obj [ ("batch_mean", J.Num batch_mean) ]) ])

let term_of_json j =
  let num field = J.to_float (J.member field j) in
  match J.to_str (J.member "kind" j) with
  | "constant" -> Constant
  | "sinusoid" -> Sinusoid { amplitude = num "amplitude"; period = num "period"; phase = num "phase" }
  | "ramp" -> Ramp { to_mult = num "to"; over = num "over" }
  | "spike" ->
      Spike { at = num "at"; rise = num "rise"; hold = num "hold"; fall = num "fall"; mult = num "mult" }
  | "piecewise" ->
      Piecewise
        (J.to_list (J.member "steps" j)
        |> List.map (fun s ->
               match J.to_list s with
               | [ at; m ] -> (J.to_float at, J.to_float m)
               | _ -> raise (J.Parse_error "rate profile: piecewise step is not a [t, mult] pair")))
  | k -> raise (J.Parse_error (Printf.sprintf "rate profile: unknown shape kind %S" k))

let of_json json =
  let name = J.to_str (J.member "name" json) in
  let shape = J.to_list (J.member "shape" json) |> List.map term_of_json in
  let burst =
    match J.member "burst" json with
    | J.Null -> None
    | b -> Some { batch_mean = J.to_float (J.member "batch_mean" b) }
  in
  make ?burst ~name shape

let load path = of_json (J.load path)

let save ~path t = J.save path (to_json t)
