(* The clock, order statistics and the result line. *)

(* Monotonic nanoseconds: latencies must not jump with wall-clock
   adjustments, and the in-process layer timings need better than the
   microsecond resolution of gettimeofday. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method); nan on no samples. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = truncate h in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        (* all digits, so repeated runs never read alike by rounding *)
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) value
          (json_string unit_))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
