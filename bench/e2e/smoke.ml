(* Smoke test of the benchmark: a one-second run of every workload in
   both modes, with both oracles on.  Each run must exit 0, report no
   failure, and print exactly the metrics BENCHMARK.json names for its
   mode — so a change that breaks the benchmark fails the test suite.

     smoke.exe MADBENCH MADQL BENCHMARK.json *)

module Json = Mad_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let names spec key =
  match Json.member key spec with
  | Some (Json.List ms) ->
    List.map
      (fun m ->
        match Option.bind (Json.member "name" m) Json.to_str with
        | Some n -> n
        | None -> fail "%s entry without a name" key)
      ms
  | _ -> fail "BENCHMARK.json has no %s list" key

(* Start a run; [finish] waits for it and returns its last line. *)
let start ~madbench ~madql ~workload ~trace =
  let args =
    [| madbench; "--workload"; workload; "--seed"; "1"; "--seconds"; "1"; "--trace";
       string_of_int trace; "--madql"; madql |]
  in
  Unix.open_process_args_in madbench args

let finish ~workload ~trace ic =
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> last
  | _ -> fail "%s --trace %d did not finish cleanly" workload trace

let () =
  match Sys.argv with
  | [| _; madbench; madql; bench_json |] ->
    (* a bare file name would be looked up on PATH *)
    let local p = if Filename.is_implicit p then Filename.concat Filename.current_dir_name p else p in
    let madbench = local madbench and madql = local madql in
    let spec =
      match Json.of_string (read_file bench_json) with
      | Ok j -> j
      | Error e -> fail "BENCHMARK.json: %s" e
    in
    let expected = [ (0, names spec "end_to_end"); (1, names spec "per_layer") ] in
    List.iter
      (fun workload ->
        (* both modes of a workload run side by side *)
        List.map (fun (trace, want) -> (trace, want, start ~madbench ~madql ~workload ~trace)) expected
        |> List.iter (fun (trace, want, ic) ->
               let result =
                 match Json.of_string (finish ~workload ~trace ic) with
                 | Ok j -> j
                 | Error e -> fail "%s --trace %d: bad result line: %s" workload trace e
               in
               if Json.member "correct" result <> Some (Json.Bool true) then
                 fail "%s --trace %d: not correct" workload trace;
               let got =
                 match Json.member "metrics" result with
                 | Some (Json.Obj ms) -> List.map fst ms
                 | _ -> fail "%s --trace %d: no metrics" workload trace
               in
               if List.sort compare got <> List.sort compare want then
                 fail "%s --trace %d: metrics %s, BENCHMARK.json names %s" workload trace
                   (String.concat "," got) (String.concat "," want)))
      (names spec "workloads");
    print_endline "smoke: every workload printed every metric BENCHMARK.json names"
  | _ -> fail "usage: smoke.exe MADBENCH MADQL BENCHMARK.json"
