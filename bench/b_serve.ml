(* serve — the network service: cross-session group commit under
   concurrent writers.  N client domains over loopback each run K
   INSERT statements through [madql serve]'s wire protocol (Exec);
   every commit is acknowledged by the group-commit coordinator, so
   with enough writers one WAL fsync covers several commits.

   Reported per writer count: commits/sec end to end, the
   client-observed commit latency distribution (mean/p50/p95), and
   fsyncs per commit — the amortization the coordinator exists for.
   The 8-writer row must batch (fsyncs/commit < 1); the harness prints
   "serve-group-commit-ok" for CI to grep. *)

module Table = Mad_store.Table
open Mad_serve

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ()) ("b_serve_" ^ name)

let brazil () = Workloads.Geo_brazil.db (Workloads.Geo_brazil.build ())

let quantile sorted q =
  if Array.length sorted = 0 then 0.0
  else
    sorted.(min (Array.length sorted - 1)
              (int_of_float (q *. float_of_int (Array.length sorted))))

(* one round: [writers] domains, each its own connection, each [per]
   inserts; returns (wall seconds, all client-side commit latencies,
   total minor words, total promoted words).  GC counters are
   domain-local in OCaml 5, so each writer samples its own deltas and
   the round sums them — reading [Gc.minor_words] from the spawning
   domain would miss every word the writers allocated. *)
let round srv ~tag ~writers ~per =
  let clock = !Mad_obs.Monotonic.clock in
  let t0 = clock () in
  let doms =
    List.init writers (fun w ->
        Stdlib.Domain.spawn (fun () ->
            let m0 = Gc.minor_words () and g0 = Gc.quick_stat () in
            let lats =
              match Client.connect ~host:"127.0.0.1" (Serve.port srv) with
              | Error e ->
                Format.eprintf "bench: connect failed: %a@."
                  Client.pp_connect_error e;
                [||]
              | Ok c ->
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    Array.init per (fun j ->
                        let s0 = clock () in
                        (match
                           Client.exec c
                             (Printf.sprintf
                                "INSERT INTO state VALUES ('%s_w%d_%d', %d);"
                                tag w j (200 + w))
                         with
                        | Ok _ -> ()
                        | Error msg -> Format.eprintf "bench: %s@." msg);
                        clock () -. s0))
            in
            let m1 = Gc.minor_words () and g1 = Gc.quick_stat () in
            ( lats,
              Float.max 0.0 (m1 -. m0),
              Float.max 0.0 (g1.Gc.promoted_words -. g0.Gc.promoted_words) )))
  in
  let joined = List.map Stdlib.Domain.join doms in
  let lats =
    List.concat_map (fun (ls, _, _) -> Array.to_list ls) joined
  in
  let minor = List.fold_left (fun acc (_, m, _) -> acc +. m) 0.0 joined in
  let promoted = List.fold_left (fun acc (_, _, p) -> acc +. p) 0.0 joined in
  (clock () -. t0, lats, minor, promoted)

let run () =
  Bench_util.section "serve: network service - cross-session group commit";
  let dir = tmp "store" in
  Mad_durable.Harness.rm_rf dir;
  let h = Mad_durable.Durable.open_dir ~seed:(brazil ()) dir in
  let config = { Serve.default_config with Serve.workers = 8; max_pending = 32 } in
  let srv = Serve.start ~config ~durable:h (Mad_durable.Durable.db h) in
  let coord = Option.get (Serve.coordinator srv) in
  let per = 40 in
  let t =
    Table.create
      [ "writers"; "commits/s"; "mean"; "p95"; "fsyncs/commit" ]
  in
  let batched_at_8 = ref nan in
  List.iter
    (fun writers ->
      let c0 = Mad_durable.Coordinator.commits coord
      and f0 = Mad_durable.Coordinator.fsyncs coord in
      let wall, lats, minor, promoted =
        round srv ~tag:(string_of_int writers) ~writers ~per
      in
      let commits = Mad_durable.Coordinator.commits coord - c0 in
      let fsyncs = Mad_durable.Coordinator.fsyncs coord - f0 in
      let sorted = Array.of_list (List.map (fun s -> s *. 1e6) lats) in
      Array.sort compare sorted;
      let n = float_of_int (writers * per) in
      let per_commit = if commits = 0 then nan else float_of_int fsyncs /. float_of_int commits in
      if writers >= 8 then batched_at_8 := per_commit;
      let mean_us = Array.fold_left ( +. ) 0.0 sorted /. float_of_int (max 1 (Array.length sorted)) in
      let p50 = quantile sorted 0.5 and p95 = quantile sorted 0.95 in
      Table.add_row t
        [
          string_of_int writers;
          Printf.sprintf "%.0f" (n /. wall);
          Printf.sprintf "%.0f us" mean_us;
          Printf.sprintf "%.0f us" p95;
          (if Float.is_nan per_commit then "n/a"
           else Printf.sprintf "%.2f" per_commit);
        ];
      Bench_util.record_external
        ~name:(Printf.sprintf "serve/commit-%dw" writers)
        ~iterations:(writers * per)
        ~ns_per_run:(wall /. n *. 1e9)
        ~mean_us ~p50_us:p50 ~p95_us:p95 ~minor_words_per_run:(minor /. n)
        ~promoted_words_per_run:(promoted /. n) ())
    [ 1; 2; 4; 8 ];
  Table.print t;
  Serve.stop srv;
  Mad_durable.Durable.close h;
  Mad_durable.Harness.rm_rf dir;
  (* the acceptance gate: concurrent writers must share fsyncs *)
  if !batched_at_8 < 1.0 then
    Format.printf "serve-group-commit-ok (%.2f fsyncs/commit at 8 writers)@."
      !batched_at_8
  else
    Format.printf
      "serve-group-commit-FAILED (%.2f fsyncs/commit at 8 writers)@."
      !batched_at_8
