open Pnp_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_int_range () =
  let g = Prng.create 3 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 17 in
    if x < 0 || x >= 17 then Alcotest.failf "out of range: %d" x
  done

let test_prng_int_covers () =
  let g = Prng.create 5 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Prng.int g 8) <- true
  done;
  Array.iteri (fun i b -> Alcotest.(check bool) (Printf.sprintf "value %d seen" i) true b) seen

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.float g 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.failf "out of range: %f" x
  done

let test_prng_split_independent () =
  let g = Prng.create 13 in
  let a = Prng.split g in
  let b = Prng.split g in
  Alcotest.(check bool) "split streams differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_exponential_mean () =
  let g = Prng.create 17 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential g ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %f within 5%% of 10" mean)
    true
    (abs_float (mean -. 10.0) < 0.5)

let test_prng_shuffle_permutation () =
  let g = Prng.create 19 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_prng_int_unbiased () =
  (* With bound = 3 * 2^60, a plain [mod] over 62-bit draws would return a
     value below 2^60 half the time (the wrapped tail doubles up the first
     interval); rejection sampling must give 1/3. *)
  let g = Prng.create 23 in
  let bound = 3 * (1 lsl 60) in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    if Prng.int g bound < 1 lsl 60 then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "low-interval fraction %.3f near 1/3" frac)
    true
    (abs_float (frac -. (1.0 /. 3.0)) < 0.02)

let test_prng_int_pinned () =
  (* Regression pin: the exact stream for a fixed seed.  Simulation results
     (e.g. unfair-lock grant orders) depend on it staying put. *)
  let g = Prng.create 42 in
  let got = List.init 8 (fun _ -> Prng.int g 100) in
  Alcotest.(check (list int)) "seed-42 bound-100 stream" [ 53; 72; 64; 41; 12; 65; 31; 77 ] got

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () = check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ])

let test_stats_summary_known () =
  let s = Stats.summary [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  check_float "mean" 5.0 s.Stats.mean;
  Alcotest.(check int) "n" 8 s.Stats.n;
  check_float "min" 2.0 s.Stats.min;
  check_float "max" 9.0 s.Stats.max;
  (* sample stddev of this classic dataset is sqrt(32/7) *)
  Alcotest.(check (float 1e-6)) "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev

let test_stats_single_point () =
  let s = Stats.summary [ 42.0 ] in
  check_float "mean" 42.0 s.Stats.mean;
  check_float "stddev" 0.0 s.Stats.stddev;
  check_float "ci90" 0.0 s.Stats.ci90

let test_stats_ci_shrinks () =
  (* More samples with the same spread => smaller CI. *)
  let base = [ 9.0; 10.0; 11.0 ] in
  let more = base @ base @ base @ base in
  let s3 = Stats.summary base and s12 = Stats.summary more in
  Alcotest.(check bool) "ci shrinks with n" true (s12.Stats.ci90 < s3.Stats.ci90)

let test_stats_empty_raises () =
  Alcotest.check_raises "empty summary" (Invalid_argument "Stats.summary: empty")
    (fun () -> ignore (Stats.summary []))

let test_stats_t_crit () =
  check_float "df=1" 6.314 (Stats.t_crit 1);
  check_float "df=2" 2.920 (Stats.t_crit 2);
  check_float "df=10" 1.812 (Stats.t_crit 10);
  check_float "df=20" 1.725 (Stats.t_crit 20);
  check_float "df=30" 1.697 (Stats.t_crit 30);
  (* beyond the table: asymptotic normal value *)
  check_float "df=31" 1.645 (Stats.t_crit 31);
  check_float "df=1000" 1.645 (Stats.t_crit 1000);
  check_float "df=0" 0.0 (Stats.t_crit 0);
  (* the table must decrease monotonically toward the z fallback *)
  for df = 1 to 30 do
    Alcotest.(check bool)
      (Printf.sprintf "t(%d) > t(%d)" df (df + 1))
      true
      (Stats.t_crit df > Stats.t_crit (df + 1))
  done

let prop_summary_bounds =
  QCheck.Test.make ~name:"summary mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Stats.summary xs in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_units_conversions () =
  Alcotest.(check int) "1us" 1_000 (Units.us 1.0);
  Alcotest.(check int) "1.5us" 1_500 (Units.us 1.5);
  Alcotest.(check int) "2ms" 2_000_000 (Units.ms 2.0);
  Alcotest.(check int) "1s" 1_000_000_000 (Units.sec 1.0)

let test_units_throughput () =
  (* 125 MB in one second = 1000 Mbit/s *)
  check_float "1000 Mb/s" 1000.0
    (Units.mbits_per_sec ~bytes_transferred:125_000_000 ~duration:(Units.sec 1.0));
  check_float "zero duration" 0.0 (Units.mbits_per_sec ~bytes_transferred:1 ~duration:0)

let test_units_pp () =
  let s t = Format.asprintf "%a" Units.pp_ns t in
  Alcotest.(check string) "ns" "500ns" (s 500);
  Alcotest.(check string) "us" "1.500us" (s 1500);
  Alcotest.(check string) "ms" "2.000ms" (s 2_000_000)

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "int in range" `Quick test_prng_int_range;
        Alcotest.test_case "int covers range" `Quick test_prng_int_covers;
        Alcotest.test_case "float in range" `Quick test_prng_float_range;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "int unbiased" `Quick test_prng_int_unbiased;
        Alcotest.test_case "int stream pinned" `Quick test_prng_int_pinned;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "summary on known data" `Quick test_stats_summary_known;
        Alcotest.test_case "single point" `Quick test_stats_single_point;
        Alcotest.test_case "ci shrinks with n" `Quick test_stats_ci_shrinks;
        Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
        Alcotest.test_case "t critical values" `Quick test_stats_t_crit;
        Qrand.to_alcotest prop_summary_bounds;
      ] );
    ( "util.units",
      [
        Alcotest.test_case "conversions" `Quick test_units_conversions;
        Alcotest.test_case "throughput" `Quick test_units_throughput;
        Alcotest.test_case "pretty printing" `Quick test_units_pp;
      ] );
  ]
