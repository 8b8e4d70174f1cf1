open Cpr_ir
module Mem = Hashtbl.Make (Int)

(* Register ids in [0, dense_cap) live in an array indexed by [Reg.id],
   grown on first write; any other id (a parsed program's r1000000, a
   negative id) goes to the overflow table, so a stray id never sizes an
   array. *)
let dense_cap = 4096

type 'a file = {
  mutable cells : 'a array;
  overflow : 'a Mem.t;
  blank : 'a;  (** the value of a register never written *)
}

type t = {
  gprs : int file;
  preds : bool file;
  btrs : string option file;
  memory : int Mem.t;
  mutable stores : (int * int) list;  (** write trace, newest first *)
}

let file blank = { cells = [||]; overflow = Mem.create 1; blank }

let create () =
  {
    gprs = file 0;
    preds = file false;
    btrs = file None;
    memory = Mem.create 256;
    stores = [];
  }

(* Ids in [length cells, dense_cap) were never written: they are absent
   from the overflow table too. *)
let get f id =
  if id >= 0 && id < Array.length f.cells then Array.unsafe_get f.cells id
  else Option.value ~default:f.blank (Mem.find_opt f.overflow id)

let grow f id =
  let n = ref (max 16 (Array.length f.cells)) in
  while !n <= id do
    n := 2 * !n
  done;
  let cells = Array.make (min !n dense_cap) f.blank in
  Array.blit f.cells 0 cells 0 (Array.length f.cells);
  f.cells <- cells

let set f id v =
  if id >= 0 && id < Array.length f.cells then Array.unsafe_set f.cells id v
  else if id >= 0 && id < dense_cap then begin
    grow f id;
    Array.unsafe_set f.cells id v
  end
  else Mem.replace f.overflow id v

let read_gpr t (r : Reg.t) = get t.gprs r.Reg.id
let read_pred t (r : Reg.t) = get t.preds r.Reg.id
let read_btr t (r : Reg.t) = get t.btrs r.Reg.id
let write_gpr t (r : Reg.t) v = set t.gprs r.Reg.id v
let write_pred t (r : Reg.t) v = set t.preds r.Reg.id v
let write_btr t (r : Reg.t) l = set t.btrs r.Reg.id (Some l)
let read_mem t a = Option.value ~default:0 (Mem.find_opt t.memory a)

let write_mem t a v =
  Mem.replace t.memory a v;
  t.stores <- (a, v) :: t.stores

let set_memory t cells = List.iter (fun (a, v) -> Mem.replace t.memory a v) cells
let store_trace t = List.rev t.stores

let memory_snapshot t =
  Mem.fold (fun a v acc -> (a, v) :: acc) t.memory []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let same_memory a b =
  Mem.length a.memory = Mem.length b.memory
  && Mem.fold
       (fun addr v ok ->
         ok
         && match Mem.find_opt b.memory addr with Some w -> v = w | None -> false)
       a.memory true

let same_store_trace a b = a.stores = b.stores
