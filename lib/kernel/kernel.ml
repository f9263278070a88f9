(** The bitset derivation kernel — see the interface for semantics. *)

open Mad_store

type edge_plan = { e_link : string; e_from : int; e_fwd : bool }
type node_plan = { n_type : string; n_ins : edge_plan array }
type plan = { p_nodes : node_plan array }

type mol = {
  m_root : Aid.t;
  m_atoms : Aid.t array array;
  m_links : (string * Aid.t * Aid.t) list;
}

type node_stats = { st_atoms : int array; st_links : int array }

(* ------------------------------------------------------------------ *)
(* Plan preparation: resolve every type index and CSR once per run, so
   the per-root loop only ever touches the resolved arrays.            *)

type pedge = {
  pe_link : string;
  pe_from : int;
  pe_fwd : bool;
  pe_csr : Snapshot.csr;
  pe_from_ids : Aid.t array;
}

type pnode = { pn_ids : Aid.t array; pn_ins : pedge array }

let prepare snap plan =
  Array.map
    (fun n ->
      let ids = (Snapshot.tindex snap n.n_type).ids in
      let ins =
        Array.map
          (fun e ->
            {
              pe_link = e.e_link;
              pe_from = e.e_from;
              pe_fwd = e.e_fwd;
              pe_csr =
                Snapshot.csr snap e.e_link ~dir:(if e.e_fwd then `Fwd else `Bwd);
              pe_from_ids =
                (Snapshot.tindex snap plan.p_nodes.(e.e_from).n_type).ids;
            })
          n.n_ins
      in
      { pn_ids = ids; pn_ins = ins })
    plan.p_nodes

(* ------------------------------------------------------------------ *)
(* Per-run work state, reused across the run's roots                  *)

type work = {
  w_sets : int array array;  (** per node: included dense indices *)
  w_lens : int array;
  w_bits : Bitset.t array;  (** membership companion of [w_sets] *)
  w_bsets : int array array;  (** diamond nodes: per-edge candidate list *)
  w_bbits : Bitset.t option array;
}

let make_work pnodes =
  let n = Array.length pnodes in
  {
    w_sets = Array.map (fun pn -> Array.make (max 1 (Array.length pn.pn_ids)) 0) pnodes;
    w_lens = Array.make n 0;
    w_bits = Array.map (fun pn -> Bitset.create (Array.length pn.pn_ids)) pnodes;
    w_bsets =
      Array.map
        (fun pn ->
          if Array.length pn.pn_ins >= 2 then
            Array.make (max 1 (Array.length pn.pn_ids)) 0
          else [||])
        pnodes;
    w_bbits =
      Array.map
        (fun pn ->
          if Array.length pn.pn_ins >= 2 then
            Some (Bitset.create (Array.length pn.pn_ids))
          else None)
        pnodes;
  }

(* evaluate one root; fills w_sets/w_lens, appends to [out_links],
   accumulates reach-pass stats into [st_atoms]/[st_links] *)
let eval pnodes work root_idx out_links st_atoms st_links =
  work.w_sets.(0).(0) <- root_idx;
  work.w_lens.(0) <- 1;
  for j = 1 to Array.length pnodes - 1 do
    let pn = pnodes.(j) in
    let ins = pn.pn_ins in
    let bits = work.w_bits.(j) in
    let cand = work.w_sets.(j) in
    let single = Array.length ins = 1 in
    let na = ref 0 in
    let scanned = ref 0 in
    (* reach along the first edge; with a single in-edge the included
       set is exactly the union of the rows, so the used links can be
       recorded in the same scan *)
    let e0 = ins.(0) in
    let parents = work.w_sets.(e0.pe_from) in
    for pi = 0 to work.w_lens.(e0.pe_from) - 1 do
      let p = parents.(pi) in
      let lo = e0.pe_csr.offs.(p) and hi = e0.pe_csr.offs.(p + 1) in
      scanned := !scanned + (hi - lo);
      let p_raw = e0.pe_from_ids.(p) in
      for k = lo to hi - 1 do
        let c = e0.pe_csr.cols.(k) in
        if single then begin
          let c_raw = pn.pn_ids.(c) in
          let left, right =
            if e0.pe_fwd then (p_raw, c_raw) else (c_raw, p_raw)
          in
          out_links := (e0.pe_link, left, right) :: !out_links
        end;
        if not (Bitset.mem bits c) then begin
          Bitset.set bits c;
          cand.(!na) <- c;
          incr na
        end
      done
    done;
    if not single then begin
      (* diamond: AND in every further in-edge's reach set (Def. 6's
         conjunctive [contained]) *)
      let bbits = Option.get work.w_bbits.(j) in
      let bcand = work.w_bsets.(j) in
      for ei = 1 to Array.length ins - 1 do
        let e = ins.(ei) in
        let nb = ref 0 in
        let parents = work.w_sets.(e.pe_from) in
        for pi = 0 to work.w_lens.(e.pe_from) - 1 do
          let p = parents.(pi) in
          let lo = e.pe_csr.offs.(p) and hi = e.pe_csr.offs.(p + 1) in
          scanned := !scanned + (hi - lo);
          for k = lo to hi - 1 do
            let c = e.pe_csr.cols.(k) in
            if not (Bitset.mem bbits c) then begin
              Bitset.set bbits c;
              bcand.(!nb) <- c;
              incr nb
            end
          done
        done;
        Bitset.inter_into bits bbits;
        for i = 0 to !nb - 1 do
          Bitset.unset bbits bcand.(i)
        done
      done;
      (* compact the candidate list to the survivors *)
      let k = ref 0 in
      for i = 0 to !na - 1 do
        let c = cand.(i) in
        if Bitset.mem bits c then begin
          cand.(!k) <- c;
          incr k
        end
      done;
      na := !k;
      (* one membership-filtered rescan records the used links (the
         reach pass above already accounted the traversals) *)
      Array.iter
        (fun e ->
          let parents = work.w_sets.(e.pe_from) in
          for pi = 0 to work.w_lens.(e.pe_from) - 1 do
            let p = parents.(pi) in
            let p_raw = e.pe_from_ids.(p) in
            for k = e.pe_csr.offs.(p) to e.pe_csr.offs.(p + 1) - 1 do
              let c = e.pe_csr.cols.(k) in
              if Bitset.mem bits c then begin
                let c_raw = pn.pn_ids.(c) in
                let left, right =
                  if e.pe_fwd then (p_raw, c_raw) else (c_raw, p_raw)
                in
                out_links := (e.pe_link, left, right) :: !out_links
              end
            done
          done)
        ins
    end;
    work.w_lens.(j) <- !na;
    st_atoms.(j) <- st_atoms.(j) + !na;
    st_links.(j) <- st_links.(j) + !scanned
  done

let build_mol pnodes work root_raw links =
  let m_atoms =
    Array.mapi
      (fun j pn ->
        if j = 0 then [| root_raw |]
        else begin
          let a =
            Array.init work.w_lens.(j) (fun i -> pn.pn_ids.(work.w_sets.(j).(i)))
          in
          Array.sort Int.compare a;
          a
        end)
      pnodes
  in
  { m_root = root_raw; m_atoms; m_links = links }

(* unset exactly the bits this root's included sets own; diamond ANDs
   already cleared the dropped candidates *)
let reset_work pnodes work =
  for j = 1 to Array.length pnodes - 1 do
    let bits = work.w_bits.(j) and cand = work.w_sets.(j) in
    for i = 0 to work.w_lens.(j) - 1 do
      Bitset.unset bits cand.(i)
    done;
    work.w_lens.(j) <- 0
  done;
  work.w_lens.(0) <- 0

let run_roots snap plan roots =
  let n_nodes = Array.length plan.p_nodes in
  let pnodes = prepare snap plan in
  let root_ti = Snapshot.tindex snap plan.p_nodes.(0).n_type in
  let n = Array.length roots in
  let t_run = Mad_obs.Monotonic.ticks () in
  let work = make_work pnodes in
  let atoms = Array.make n_nodes 0 and links = Array.make n_nodes 0 in
  let out =
    Array.map
      (fun root_raw ->
        let ri = Snapshot.idx_of root_ti root_raw in
        if ri < 0 then
          invalid_arg
            (Printf.sprintf "Mad_kernel.Kernel.run_roots: %s has no atom %d"
               plan.p_nodes.(0).n_type root_raw);
        atoms.(0) <- atoms.(0) + 1;
        let mol_links = ref [] in
        eval pnodes work ri mol_links atoms links;
        let m = build_mol pnodes work root_raw !mol_links in
        reset_work pnodes work;
        m)
      roots
  in
  Mad_obs.Recorder.note Kernel_run
    ~dur_ns:(Mad_obs.Monotonic.ticks () - t_run)
    ~label:plan.p_nodes.(0).n_type ~a:n ~b:n_nodes ();
  (out, { st_atoms = atoms; st_links = links })

(* ------------------------------------------------------------------ *)
(* Closure kernel: BFS by level with a bitset member set               *)

type closure = {
  c_atoms : Aid.t array;
  c_depths : int array;
  c_pairs : (Aid.t * Aid.t) list;
  c_visited : int;
  c_traversed : int;
}

let closure_roots ?max_depth ?(with_pairs = true) snap ~link ~fwd ~atype roots
    =
  let ti = Snapshot.tindex snap atype in
  let m = Snapshot.csr snap link ~dir:(if fwd then `Fwd else `Bwd) in
  let n = Snapshot.cardinal ti in
  (* scratch shared across roots: per-root allocation would dominate
     the many small closures an [m_dom] runs *)
  let bits = Bitset.create n in
  let members = Array.make (max 1 n) 0 in
  let depths = Array.make (max 1 n) 0 in
  let fa = ref (Array.make (max 1 n) 0) in
  let nb = ref (Array.make (max 1 n) 0) in
  let within d = match max_depth with None -> true | Some k -> d <= k in
  let t_run = Mad_obs.Monotonic.ticks () in
  let one root_raw =
    let ri = Snapshot.idx_of ti root_raw in
    if ri < 0 then
      invalid_arg
        (Printf.sprintf "Mad_kernel.Kernel.closure: %s has no atom %d" atype
           root_raw);
    let count = ref 1 in
    members.(0) <- ri;
    depths.(0) <- 0;
    Bitset.set bits ri;
    !fa.(0) <- ri;
    let flen = ref 1 in
    let pairs = ref [] in
    let traversed = ref 0 in
    let visited = ref 1 in
    let depth = ref 1 in
    while !flen > 0 && within !depth do
      let nlen = ref 0 in
      let front = !fa and nxt = !nb in
      for fi = 0 to !flen - 1 do
        let p = front.(fi) in
        let lo = m.offs.(p) and hi = m.offs.(p + 1) in
        traversed := !traversed + (hi - lo);
        let p_raw = ti.ids.(p) in
        for k = lo to hi - 1 do
          let c = m.cols.(k) in
          if with_pairs then pairs := (p_raw, ti.ids.(c)) :: !pairs;
          if not (Bitset.mem bits c) then begin
            Bitset.set bits c;
            members.(!count) <- c;
            depths.(!count) <- !depth;
            incr count;
            incr visited;
            nxt.(!nlen) <- c;
            incr nlen
          end
        done
      done;
      fa := nxt;
      nb := front;
      flen := !nlen;
      incr depth
    done;
    (* reset only the bits this root touched *)
    for i = 0 to !count - 1 do
      Bitset.unset bits members.(i)
    done;
    {
      c_atoms = Array.init !count (fun i -> ti.ids.(members.(i)));
      c_depths = Array.sub depths 0 !count;
      c_pairs = !pairs;
      c_visited = !visited;
      c_traversed = !traversed;
    }
  in
  let out = Array.map one roots in
  Mad_obs.Recorder.note Kernel_run
    ~dur_ns:(Mad_obs.Monotonic.ticks () - t_run)
    ~label:"closure" ~a:(Array.length roots) ~b:1 ();
  out

let closure ?max_depth ?with_pairs snap ~link ~fwd ~atype root_raw =
  (closure_roots ?max_depth ?with_pairs snap ~link ~fwd ~atype [| root_raw |]).(0)
