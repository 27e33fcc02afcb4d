let exponential rng ~mean =
  let u = 1.0 -. Rng.float rng 1.0 in
  -.mean *. log u

let normal rng ~mean ~std =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let lognormal rng ~mu ~sigma = exp (normal rng ~mean:mu ~std:sigma)

let geometric rng ~mean =
  if mean <= 1.0 then 1
  else
    (* support {1, 2, ...}: P(k) = p (1-p)^(k-1) with p = 1/mean, sampled
       by inverting the CDF so one uniform draw yields one batch size *)
    let p = 1.0 /. mean in
    let u = 1.0 -. Rng.float rng 1.0 in
    1 + int_of_float (log u /. log (1.0 -. p))

let pareto rng ~scale ~shape =
  assert (shape > 0.0);
  let u = 1.0 -. Rng.float rng 1.0 in
  scale /. (u ** (1.0 /. shape))

type zipf = { cdf : float array }

let zipf ~n ~s =
  assert (n > 0);
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  { cdf }

(* Binary search for the first index with cdf >= u. *)
let search_cdf (cdf : float array) (u : float) =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let zipf_sample z rng = search_cdf z.cdf (Rng.float rng 1.0)

type 'a discrete = { values : 'a array; probs : float array; cdf : float array }

let discrete pairs =
  let pairs = List.filter (fun (_, w) -> w > 0.0) pairs in
  if pairs = [] then invalid_arg "Dist.discrete: empty or non-positive support";
  let values = Array.of_list (List.map fst pairs) in
  let weights = Array.of_list (List.map snd pairs) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let probs = Array.map (fun w -> w /. total) weights in
  let cdf = Array.make (Array.length probs) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cdf.(i) <- !acc)
    probs;
  cdf.(Array.length cdf - 1) <- 1.0;
  { values; probs; cdf }

let discrete_sample d rng = d.values.(search_cdf d.cdf (Rng.float rng 1.0))

let discrete_support d =
  Array.init (Array.length d.values) (fun i -> (d.values.(i), d.probs.(i)))

type empirical = { samples : float array; mean : float }

let empirical samples =
  if Array.length samples = 0 then invalid_arg "Dist.empirical: empty";
  let sum = Array.fold_left ( +. ) 0.0 samples in
  { samples; mean = sum /. float_of_int (Array.length samples) }

let empirical_sample e rng = e.samples.(Rng.int rng (Array.length e.samples))
let empirical_mean e = e.mean
