(* The four traffic mixes: the generated database, the connections and
   the seeded statement streams of each.  Everything here is a pure
   function of the workload and the seed — the server only ever sees
   the dump and the statement text. *)

module Rng = Workloads.Rng

type kind = Geo_adhoc | Geo_scan | Bom_explode | Geo_mixed

let kinds = [ Geo_adhoc; Geo_scan; Bom_explode; Geo_mixed ]

let name = function
  | Geo_adhoc -> "geo_adhoc"
  | Geo_scan -> "geo_scan"
  | Bom_explode -> "bom_explode"
  | Geo_mixed -> "geo_mixed"

let of_name s = List.find_opt (fun k -> String.equal (name k) s) kinds

(* --- databases -------------------------------------------------------- *)

(* A 32x32 grid: 1,024 states and 1,089 points, so a lookup that derives
   the whole occurrence before filtering costs milliseconds, not
   microseconds, and every river shares border edges with states. *)
let grid = 32
let bom_width = 64

let geo_params seed =
  {
    Workloads.Geo_gen.rows = grid;
    cols = grid;
    rivers = 32;
    river_len = 8;
    cities = 128;
    shared_rivers = true;
    seed;
  }

(* 8 levels x 64 parts, fanout 3, half the links to shared children:
   explosions from the top levels reach hundreds of parts through
   shared sub-assemblies. *)
let bom_params seed =
  { Workloads.Bom_gen.depth = 8; width = bom_width; fanout = 3; share = 0.5; seed }

type db = Geo of Workloads.Geo_grid.t | Bom of Workloads.Bom_gen.t

let build kind seed =
  match kind with
  | Bom_explode -> Bom (Workloads.Bom_gen.build (bom_params seed))
  | Geo_adhoc | Geo_scan | Geo_mixed -> Geo (Workloads.Geo_gen.build (geo_params seed))

let database = function
  | Geo g -> g.Workloads.Geo_grid.db
  | Bom b -> b.Workloads.Bom_gen.db

(* --- connections ------------------------------------------------------ *)

type role = Reader | Writer

let roles = function
  | Geo_adhoc -> [ Reader; Reader ]
  | Geo_scan | Bom_explode -> [ Reader ]
  | Geo_mixed -> [ Reader; Writer ]

(* The molecule types every reader connection defines at set-up. *)
let catalogue = function
  | Geo_scan | Geo_mixed ->
    [ ("mts", "state-area-edge-point"); ("pn", "point-edge-(area-state,net-river)") ]
  | Geo_adhoc | Bom_explode -> []

let defines kind =
  List.map (fun (n, s) -> Printf.sprintf "DEFINE MOLECULE %s AS %s;" n s) (catalogue kind)

let read_only kind = not (List.mem Writer (roles kind))

(* Open-loop commit rate of the writer connection, per second.  Every
   commit makes the reader re-derive its whole catalogue (25-35 ms on
   the 32x32 grid); at 20/s that took 50-70% of the reader's time and
   its throughput varied by a quarter from run to run. *)
let write_rate = 10.0

(* --- statements ------------------------------------------------------- *)

type stmt = { tmpl : string; text : string }

let stmt tmpl fmt = Printf.ksprintf (fun text -> { tmpl; text }) fmt
let state rng = Printf.sprintf "S%03d" (1 + Rng.int rng (grid * grid))
let point rng = Printf.sprintf "p%d_%d" (Rng.int rng (grid + 1)) (Rng.int rng (grid + 1))

let part rng ~lo ~hi =
  Printf.sprintf "P%d_%d" (lo + Rng.int rng (hi - lo + 1)) (Rng.int rng bom_width)

let uniform rng lo hi = lo + Rng.int rng (hi - lo + 1)

(* Templates follow a fixed cycle, so every run has exactly the mix's
   proportions and only the keys and constants are drawn from the seed:
   a drawn mix would move the medians from run to run by itself. *)
let nth_of cycle k = cycle.(k mod Array.length cycle)

(* The [k]-th read of a reader connection. *)
let read kind rng k =
  match kind with
  | Geo_adhoc -> (
    match nth_of [| `Q1; `Q2 |] k with
    | `Q1 ->
      stmt "q1" "SELECT ALL FROM state-area-edge-point WHERE state.name = '%s';" (state rng)
    | `Q2 ->
      stmt "q2" "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.name = '%s';"
        (point rng))
  | Geo_scan -> (
    match nth_of [| `All; `State; `All; `State; `River |] k with
    | `All -> stmt "mts_all" "SELECT ALL FROM mts WHERE state.hectare >= %d;" (uniform rng 600 1400)
    | `State ->
      stmt "mts_state" "SELECT state FROM mts WHERE state.hectare >= %d;" (uniform rng 600 1400)
    | `River ->
      stmt "pn_river" "SELECT ALL FROM pn WHERE EXISTS river (river.length >= %d);"
        (uniform rng 100 800))
  | Bom_explode -> (
    match nth_of [| `Sub; `Super; `Sub; `Super; `Depth |] k with
    | `Sub ->
      stmt "explode" "SELECT ALL FROM part RECURSIVE BY composition WHERE part.pname = '%s';"
        (part rng ~lo:0 ~hi:3)
    | `Super ->
      stmt "where_used"
        "SELECT ALL FROM part RECURSIVE BY composition SUPER WHERE part.pname = '%s';"
        (part rng ~lo:4 ~hi:7)
    | `Depth ->
      stmt "depth2"
        "SELECT ALL FROM part RECURSIVE BY composition DEPTH 2 WHERE part.pname = '%s';"
        (part rng ~lo:0 ~hi:5))
  | Geo_mixed -> (
    (* bands of ~10% of a catalogued type take ~10 ms, so the read after
       each commit — the one that pays the catalogue refresh — is ~15%
       of the reads and lands inside the 95th percentile; lookups by
       name took ~1 ms and put it on the percentile's edge.  The cheaper
       [pn] bands are one read in five: half and half, the median fell
       in the gap between the two templates' latencies and moved with
       the share of refreshed reads. *)
    match nth_of [| `Mts; `Mts; `Mts; `Mts; `Pn |] k with
    | `Mts ->
      let t = uniform rng 100 1800 in
      stmt "mts_band" "SELECT ALL FROM mts WHERE state.hectare >= %d AND state.hectare < %d;" t
        (t + 200)
    | `Pn ->
      let x = Rng.int rng grid in
      stmt "pn_band" "SELECT ALL FROM pn WHERE point.x >= %d AND point.x <= %d;" x (x + 1))

(* What an acknowledged write promises after a crash: the atom named
   [key] exists, or its [attr] holds [value]. *)
type promise =
  | Exists of { atype : string; key : string }
  | Holds of { atype : string; key_attr : string; key : string; attr : string; value : int }

type write = { w : stmt; promise : promise }

(* The [k]-th write of the writer connection: half MODIFY, 30% INSERT
   INTO city, 20% INSERT INTO river (river is a node of [pn], so those
   commits change the reader's catalogue).  Names carry [k], so every
   insert is distinct. *)
let write db rng k =
  let g = match db with Geo g -> g | Bom _ -> invalid_arg "Mix.write: no writer on a BOM" in
  let key = Printf.sprintf "W%06d" k in
  match nth_of [| `Mod; `City; `Mod; `City; `Mod; `River; `Mod; `City; `Mod; `River |] k with
  | `Mod ->
    let s = state rng and v = uniform rng 100 1999 in
    {
      w = stmt "modify_hectare" "MODIFY state.hectare = %d FROM state WHERE state.name = '%s';" v s;
      promise = Holds { atype = "state"; key_attr = "name"; key = s; attr = "hectare"; value = v };
    }
  | `City ->
    let p = Workloads.Geo_grid.point g (Rng.int rng (grid + 1), Rng.int rng (grid + 1)) in
    {
      w =
        stmt "insert_city" "INSERT INTO city VALUES ('%s', %d) LINK city-point @%d;" key
          (uniform rng 1000 999_999) p;
      promise = Exists { atype = "city"; key };
    }
  | `River ->
    {
      w = stmt "insert_river" "INSERT INTO river VALUES ('%s', %d);" key (100 * uniform rng 1 9);
      promise = Exists { atype = "river"; key };
    }

(* Independent, reproducible streams per purpose and connection. *)
let rng ~seed ~stream = Rng.create ((seed * 7919) + stream)
