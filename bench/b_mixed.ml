(* mixed — delta maintenance under a mixed read/write workload: N
   reader domains stream a structural MOL query through [madql serve]
   while one writer commits INSERTs into the same structure.  Every
   commit moves the epoch, so each reader session's next statement
   pays a catalog refresh — before delta maintenance that meant a full
   CSR rebuild per commit; with it, the snapshot is patched and the
   closure memos repaired.

   Reported: the warm (read-only) read latency distribution, the read
   distribution while commits land, and the snapshot delta/rebuild
   counters over the mixed phase.  The gate: post-commit read p50 must
   stay within 3x the warm p50 AND the delta path must actually have
   applied (snapshot.delta_applied > 0); the harness prints
   "mixed-delta-ok" for CI to grep. *)

module Table = Mad_store.Table
open Mad_serve

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ()) ("b_mixed_" ^ name)

let brazil () = Workloads.Geo_brazil.db (Workloads.Geo_brazil.build ())

let quantile sorted q =
  if Array.length sorted = 0 then 0.0
  else
    sorted.(min (Array.length sorted - 1)
              (int_of_float (q *. float_of_int (Array.length sorted))))

let query = "SELECT ALL FROM mt_state(state-area-edge-point);"

let dreg () = Mad_obs.Obs.registry (Mad_obs.Obs.default ())
let counter name = Mad_obs.Registry.counter_value (dreg ()) name

(* one reader: its own connection and session, reads until [stop] is
   raised (and at least [at_least] reads), dropping the first [drop]
   reads (connection + catalog-define warmup) from the stats.  Returns
   (latencies, minor words, promoted words) — GC counters are
   domain-local in OCaml 5, so each reader samples its own deltas. *)
let reader srv ~drop ~at_least ~stop =
  let clock = !Mad_obs.Monotonic.clock in
  let m0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  let lats =
    match Client.connect ~host:"127.0.0.1" (Serve.port srv) with
    | Error e ->
      Format.eprintf "bench: connect failed: %a@." Client.pp_connect_error e;
      []
    | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let lats = ref [] in
          let n = ref 0 in
          let cap = 2000 in
          while (!n < at_least || not (Atomic.get stop)) && !n < cap do
            let s0 = clock () in
            (match Client.exec c query with
            | Ok _ -> ()
            | Error msg -> Format.eprintf "bench: %s@." msg);
            let dt = clock () -. s0 in
            incr n;
            if !n > drop then lats := (dt *. 1e6) :: !lats
          done;
          !lats)
  in
  let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  ( lats,
    Float.max 0.0 (m1 -. m0),
    Float.max 0.0 (g1.Gc.promoted_words -. g0.Gc.promoted_words) )

let sum_gc joined =
  ( List.concat_map (fun (ls, _, _) -> ls) joined,
    List.fold_left (fun acc (_, m, _) -> acc +. m) 0.0 joined,
    List.fold_left (fun acc (_, _, p) -> acc +. p) 0.0 joined )

let stats lats =
  let sorted = Array.of_list lats in
  Array.sort compare sorted;
  let mean =
    Array.fold_left ( +. ) 0.0 sorted
    /. float_of_int (max 1 (Array.length sorted))
  in
  (mean, quantile sorted 0.5, quantile sorted 0.95, Array.length sorted)

let run () =
  Bench_util.section "mixed: delta maintenance - N readers + 1 writer";
  let dir = tmp "store" in
  Mad_durable.Harness.rm_rf dir;
  let h = Mad_durable.Durable.open_dir ~seed:(brazil ()) dir in
  let config =
    { Serve.default_config with Serve.workers = 8; max_pending = 32 }
  in
  let srv = Serve.start ~config ~durable:h (Mad_durable.Durable.db h) in
  let readers = 4 and drop = 3 in
  (* warm phase: reads only, no epoch movement *)
  let stop_now = Atomic.make true in
  let warm_lats, w_minor, w_promoted =
    List.init readers (fun _ ->
        Stdlib.Domain.spawn (fun () ->
            reader srv ~drop ~at_least:(drop + 40) ~stop:stop_now))
    |> List.map Stdlib.Domain.join |> sum_gc
  in
  let w_mean, w_p50, w_p95, w_n = stats warm_lats in
  (* mixed phase: the same readers race a writer committing into the
     very structure they query *)
  let d0 = counter "snapshot.delta_applied" in
  let r0 = counter "snapshot.rebuild" in
  let stop = Atomic.make false in
  let reader_doms =
    List.init readers (fun _ ->
        Stdlib.Domain.spawn (fun () ->
            reader srv ~drop ~at_least:(drop + 20) ~stop))
  in
  let writer =
    Stdlib.Domain.spawn (fun () ->
        match Client.connect ~host:"127.0.0.1" (Serve.port srv) with
        | Error e ->
          Format.eprintf "bench: writer connect failed: %a@."
            Client.pp_connect_error e;
          0
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let committed = ref 0 in
              for j = 1 to 30 do
                (match
                   Client.exec c
                     (Printf.sprintf "INSERT INTO state VALUES ('MX%02d', %d);"
                        j (300 + j))
                 with
                | Ok _ -> incr committed
                | Error msg -> Format.eprintf "bench: %s@." msg);
                Unix.sleepf 0.002
              done;
              !committed))
  in
  let commits = Stdlib.Domain.join writer in
  Atomic.set stop true;
  let mixed_lats, m_minor, m_promoted =
    List.map Stdlib.Domain.join reader_doms |> sum_gc
  in
  let m_mean, m_p50, m_p95, m_n = stats mixed_lats in
  let applied = counter "snapshot.delta_applied" - d0 in
  let rebuilt = counter "snapshot.rebuild" - r0 in
  Serve.stop srv;
  Mad_durable.Durable.close h;
  Mad_durable.Harness.rm_rf dir;
  let t =
    Table.create [ "phase"; "reads"; "mean"; "p50"; "p95"; "delta/rebuild" ]
  in
  Table.add_row t
    [
      "warm";
      string_of_int w_n;
      Printf.sprintf "%.0f us" w_mean;
      Printf.sprintf "%.0f us" w_p50;
      Printf.sprintf "%.0f us" w_p95;
      "-";
    ];
  Table.add_row t
    [
      Printf.sprintf "mixed (%d commits)" commits;
      string_of_int m_n;
      Printf.sprintf "%.0f us" m_mean;
      Printf.sprintf "%.0f us" m_p50;
      Printf.sprintf "%.0f us" m_p95;
      Printf.sprintf "%d/%d" applied rebuilt;
    ];
  Table.print t;
  Bench_util.record_external ~name:"mixed/read-warm" ~iterations:w_n
    ~ns_per_run:(w_mean *. 1e3) ~mean_us:w_mean ~p50_us:w_p50 ~p95_us:w_p95
    ~minor_words_per_run:(w_minor /. float_of_int (max 1 w_n))
    ~promoted_words_per_run:(w_promoted /. float_of_int (max 1 w_n))
    ();
  Bench_util.record_external ~name:"mixed/read-post-commit" ~iterations:m_n
    ~ns_per_run:(m_mean *. 1e3) ~mean_us:m_mean ~p50_us:m_p50 ~p95_us:m_p95
    ~minor_words_per_run:(m_minor /. float_of_int (max 1 m_n))
    ~promoted_words_per_run:(m_promoted /. float_of_int (max 1 m_n))
    ();
  (* the acceptance gate: commits must not turn reads into rebuilds *)
  let within = m_p50 <= 3.0 *. w_p50 in
  if within && applied > 0 then
    Format.printf
      "mixed-delta-ok (post-commit read p50 %.0f us <= 3x warm %.0f us; %d \
       delta applies, %d rebuilds)@."
      m_p50 w_p50 applied rebuilt
  else
    Format.printf
      "mixed-delta-FAILED (post-commit p50 %.0f us vs warm %.0f us; %d delta \
       applies, %d rebuilds)@."
      m_p50 w_p50 applied rebuilt
