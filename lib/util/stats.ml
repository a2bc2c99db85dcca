type summary = {
  n : int;
  mean : float;
  stddev : float;
  ci90 : float;
  min : float;
  max : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Two-sided 90% Student-t critical values by degrees of freedom, through
   df = 30.  Beyond the table the t distribution is within ~1% of normal,
   so we fall back to the asymptotic z value 1.645 (one-sided 95% = the
   two-sided 90% point of N(0,1)). *)
let t90 =
  [|
    6.314; 2.920; 2.353; 2.132; 2.015; 1.943; 1.895; 1.860; 1.833; 1.812;
    1.796; 1.782; 1.771; 1.761; 1.753; 1.746; 1.740; 1.734; 1.729; 1.725;
    1.721; 1.717; 1.714; 1.711; 1.708; 1.706; 1.703; 1.701; 1.699; 1.697;
  |]

let t_crit df =
  if df <= 0 then 0.0
  else if df <= Array.length t90 then t90.(df - 1)
  else 1.645

let summary xs =
  match xs with
  | [] -> invalid_arg "Stats.summary: empty"
  | _ ->
    let n = List.length xs in
    let m = mean xs in
    let var =
      if n < 2 then 0.0
      else
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
        /. float_of_int (n - 1)
    in
    let sd = sqrt var in
    let ci = if n < 2 then 0.0 else t_crit (n - 1) *. sd /. sqrt (float_of_int n) in
    {
      n;
      mean = m;
      stddev = sd;
      ci90 = ci;
      min = List.fold_left min infinity xs;
      max = List.fold_left max neg_infinity xs;
    }
