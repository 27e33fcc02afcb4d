module Rate = Ditto_app.Rate

(* Canonical surge profiles, scaled to the load duration the same way
   Ditto_fault.Plan.canonical scales its event times. Fractions are chosen
   so every phase completes inside the run: the flash crowd has fully
   receded by 0.7*duration, leaving windows for reconvergence scoring. *)

let flash_crowd ?(mult = 4.0) ~duration () =
  Rate.make ~name:"flash-crowd"
    [
      Rate.Spike
        {
          at = 0.3 *. duration;
          rise = 0.05 *. duration;
          hold = 0.2 *. duration;
          fall = 0.15 *. duration;
          mult;
        };
    ]

let diurnal ?(amplitude = 0.5) ~duration () =
  Rate.make ~name:"diurnal" [ Rate.Sinusoid { amplitude; period = duration; phase = 0.0 } ]

let ramp_to_saturation ~duration () =
  Rate.make ~name:"ramp-to-saturation" [ Rate.Ramp { to_mult = 6.0; over = 0.8 *. duration } ]

let canonical ~duration =
  [ flash_crowd ~duration (); diurnal ~duration (); ramp_to_saturation ~duration () ]

let names = [ "flash-crowd"; "diurnal"; "ramp-to-saturation" ]

let by_name ~duration name =
  match name with
  | "flash-crowd" -> flash_crowd ~duration ()
  | "diurnal" -> diurnal ~duration ()
  | "ramp-to-saturation" -> ramp_to_saturation ~duration ()
  | n ->
      invalid_arg
        (Printf.sprintf "Ditto_loadgen.Profile: unknown canonical profile %S (known: %s)" n
           (String.concat ", " names))

