type ('k, 'v) tables = {
  mutable current : ('k, 'v) Hashtbl.t;
  mutable previous : ('k, 'v) Hashtbl.t;
  mutable evictions : int;
}

type ('k, 'v) t = {
  half : int;  (* generation size: total residency is bounded by 2 * half *)
  domains : (int * ('k, 'v) tables) list Atomic.t;
      (* one entry per domain that has used this memo, keyed by domain id;
         only the owning domain ever touches an entry's tables *)
  telemetry : Telemetry.t;
}

let default_cap = 200_000

let create ?(telemetry = Telemetry.disabled) ?(cap = default_cap) () =
  if cap < 2 then invalid_arg "Memo.create: cap must be >= 2";
  { half = cap / 2; domains = Atomic.make []; telemetry }

let self () = (Domain.self () :> int)

let find_own t =
  let id = self () in
  let rec go = function
    | (d, tb) :: rest -> if Int.equal d id then Some tb else go rest
    | [] -> None
  in
  go (Atomic.get t.domains)

(* The calling domain's tables, registered on first use. Only this domain
   prepends its own id, so a failed CAS means another domain registered
   and a retry cannot find our id already there. *)
let tables t =
  match find_own t with
  | Some tb -> tb
  | None ->
      let tb =
        {
          current = Hashtbl.create 1024;
          previous = Hashtbl.create 0;
          evictions = 0;
        }
      in
      let id = self () in
      let rec register () =
        let seen = Atomic.get t.domains in
        if not (Atomic.compare_and_set t.domains seen ((id, tb) :: seen)) then
          register ()
      in
      register ();
      tb

let find_or_add t key compute =
  let tb = tables t in
  match Hashtbl.find_opt tb.current key with
  | Some v ->
      Telemetry.count t.telemetry "memo.hit" 1;
      v
  | None ->
      let v =
        match Hashtbl.find_opt tb.previous key with
        | Some v ->
            (* Promote below: recently-used entries survive. The entry must
               leave [previous] as it enters [current], or it would be
               resident twice and [size] could exceed the 2 * half bound. *)
            Hashtbl.remove tb.previous key;
            Telemetry.count t.telemetry "memo.hit" 1;
            v
        | None ->
            Telemetry.count t.telemetry "memo.miss" 1;
            compute key
      in
      if Hashtbl.length tb.current >= t.half then begin
        (* Generational eviction: the old generation is dropped wholesale,
           but everything touched since the last flip survives — unlike a
           full reset, the recent working set is never discarded. *)
        tb.previous <- tb.current;
        tb.current <- Hashtbl.create (max 1024 t.half);
        tb.evictions <- tb.evictions + 1;
        Telemetry.count t.telemetry "memo.eviction" 1
      end;
      Hashtbl.add tb.current key v;
      v

let size t =
  match find_own t with
  | Some tb -> Hashtbl.length tb.current + Hashtbl.length tb.previous
  | None -> 0

let evictions t =
  match find_own t with Some tb -> tb.evictions | None -> 0
