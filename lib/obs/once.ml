(** Thread-safe lazy initialization — see the interface. *)

type 'a t = { m : Mutex.t; f : unit -> 'a; v : 'a option Atomic.t }

let make f = { m = Mutex.create (); f; v = Atomic.make None }

let force t =
  match Atomic.get t.v with
  | Some v -> v
  | None ->
    Mutex.lock t.m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.m)
      (fun () ->
        match Atomic.get t.v with
        | Some v -> v
        | None ->
          let v = t.f () in
          Atomic.set t.v (Some v);
          v)
