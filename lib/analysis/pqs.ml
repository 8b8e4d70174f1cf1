module R = Pqs_reference

type key = Pqs_intf.key =
  | Cond of int
  | Entry of int

(* A hash-consed handle: [node] is the underlying DNF value, in the
   reference engine's representation, and [uid] identifies the node in
   the interning arena of the domain that built it — equal uids mean
   structurally equal nodes, so memo tables key binary operations on uid
   pairs in O(1).  [conjs] is the same DNF with a literal mask per
   conjunction (see [conj] below), the form the cache-miss algebra
   computes on.

   [pos_mask]/[neg_mask] are 62-bit polarity fingerprints computed once
   at intern time: bit [hash(key) mod 62] of [pos_mask] is set when the
   node contains a positive occurrence of [key] (and symmetrically for
   [neg_mask]).  [disjoint] can only prove two DNFs disjoint when some
   key occurs with opposite polarities across them, so two ANDs over the
   fingerprints refute most queries without touching the memo tables —
   this is where interning pays on the scheduler's hot path, where
   almost all guard pairs are compatible.

   Handles are self-contained: invalidating the arena (per program, or
   when a table outgrows its cap) never dangles an outstanding handle —
   it only costs future sharing.  A structurally equal node interned
   after an invalidation gets a fresh uid, and uids are never reused
   within a domain, so stale memo entries can never be confused with new
   nodes. *)
type t = {
  uid : int;
  node : R.t;
  conjs : conj list;
  pos_mask : int;
  neg_mask : int;
}

(* A conjunction (sorted by [key_compare], unique keys — the reference
   invariant) with its literal mask: bit [2 * (key_hash mod 31) + pos]
   is set for each literal.  A conjunction can only contain another's
   literals when its mask covers theirs, and two conjunctions can only
   contradict when one's mask meets the other's polarity-flipped mask,
   so most subset and contradiction tests end after one [land]. *)
and conj = {
  mask : int;
  lits : R.lit list;
}

let key_compare = Pqs_intf.key_compare
let key_hash = function Cond i -> 2 * i | Entry i -> (2 * i) + 1

let lit_mask (l : R.lit) =
  1 lsl ((2 * (key_hash l.key mod 31)) + Bool.to_int l.pos)

let conj_of lits =
  { mask = List.fold_left (fun m l -> m lor lit_mask l) 0 lits; lits }

(* Swap the two polarity bits of every key bucket. *)
let evens = 0x1555_5555_5555_5555
let flip m = ((m land evens) lsl 1) lor ((m lsr 1) land evens)

let lit_bit key = 1 lsl (key_hash key mod 62)

let masks_of node =
  let pos = ref 0 and neg = ref 0 in
  R.iter_lits
    (fun key p ->
      let bit = lit_bit key in
      if p then pos := !pos lor bit else neg := !neg lor bit)
    node;
  (!pos, !neg)

(* The three constants are process-global with reserved uids, so a
   handle built on one domain (e.g. [tru] captured at module
   initialization) keys the same memo entry on every domain. *)
let unknown =
  { uid = 0; node = R.unknown; conjs = []; pos_mask = 0; neg_mask = 0 }

let fls = { uid = 1; node = R.fls; conjs = []; pos_mask = 0; neg_mask = 0 }
let tru_conjs = [ conj_of [] ]
let tru =
  { uid = 2; node = R.tru; conjs = tru_conjs; pos_mask = 0; neg_mask = 0 }

let first_uid = 3

(* --- The cache-miss algebra ---

   Each operation below computes exactly the DNF the reference computes
   — the same conjunctions in the same list order, and the same
   [max_conjs] cap — because it performs the reference's fold in the
   reference's order; only the primitives differ.  [None] is
   [Unknown]. *)

(* Every literal of [a] occurs in [b]: a merge walk over the sorted
   lists. *)
let rec lits_subset (a : R.lit list) (b : R.lit list) =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys ->
    let c = key_compare x.key y.key in
    if c = 0 then x.pos = y.pos && lits_subset xs ys
    else c > 0 && lits_subset a ys

(* [a ⊆ b]: conjunction [b] implies conjunction [a]. *)
let subset a b =
  a.mask land lnot b.mask = 0 && lits_subset a.lits b.lits

(* Some key occurs in both with opposite polarities — exactly when
   [R.conj_and] answers [None] — without allocating. *)
let rec contradicts (a : R.lit list) (b : R.lit list) =
  match (a, b) with
  | [], _ | _, [] -> false
  | x :: xs, y :: ys ->
    let c = key_compare x.key y.key in
    if c = 0 then x.pos <> y.pos || contradicts xs ys
    else if c < 0 then contradicts xs b
    else contradicts a ys

(* The reference [add_conj]: [c] is dropped when a member is a subset
   of it; otherwise it is prepended and the members it is a subset of
   are filtered out — rebuilding the list only when one exists. *)
let add_conj acc c =
  if List.exists (fun c' -> subset c' c) acc then acc
  else if List.exists (fun c' -> subset c c') acc then
    c :: List.filter (fun c' -> not (subset c c')) acc
  else c :: acc

(* The cap is applied once the whole fold is done, as in the reference:
   a later, shorter conjunction can shrink an oversized set back. *)
let capped conjs =
  if List.length conjs > R.max_conjs then None else Some conjs

let or_conjs ca cb =
  match (ca, cb) with
  | [], x | x, [] -> Some x
  | [ { lits = []; _ } ], _ | _, [ { lits = []; _ } ] -> Some tru_conjs
  | _ -> capped (List.fold_left add_conj ca cb)

(* The product is folded in the reference's order: [c1] over [ca] outer,
   [c2] over [cb] inner, [add_conj] from []. *)
let and_conjs ca cb =
  match (ca, cb) with
  | [ { lits = []; _ } ], x | x, [ { lits = []; _ } ] -> Some x
  | [], _ | _, [] -> Some []
  | _ ->
    let acc = ref [] in
    List.iter
      (fun c1 ->
        List.iter
          (fun c2 ->
            match R.conj_and c1.lits c2.lits with
            | Some lits ->
              acc := add_conj !acc { mask = c1.mask lor c2.mask; lits }
            | None -> ())
          cb)
      ca;
    capped !acc

(* De Morgan, folded from true like the reference: the conjunction, over
   the conjunctions, of the disjunction of their negated literals. *)
let not_conjs conjs =
  List.fold_left
    (fun acc c ->
      match acc with
      | None -> None
      | Some acc ->
        and_conjs acc
          (List.map
             (fun (l : R.lit) ->
               let l = { l with pos = not l.pos } in
               { mask = lit_mask l; lits = [ l ] })
             c.lits))
    (Some tru_conjs) conjs

let disjoint_conjs ca cb =
  List.for_all
    (fun c1 ->
      let f1 = flip c1.mask in
      List.for_all
        (fun c2 -> c2.mask land f1 <> 0 && contradicts c1.lits c2.lits)
        cb)
    ca

let implies_conjs ca cb =
  List.for_all (fun c1 -> List.exists (fun c2 -> subset c2 c1) cb) ca

module Node_tbl = Hashtbl.Make (struct
  type t = R.t

  let equal = ( = )

  (* The default polymorphic hash folds only ~10 meaningful nodes —
     DNFs sharing a prefix would all collide.  Deepen the traversal;
     expressions are capped (max_conjs) so this stays bounded. *)
  let hash (x : t) = Hashtbl.hash_param 64 256 x
end)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = Hashtbl.hash x
end)

(* Per-domain state: the scheduler's domain pool runs whole workloads in
   parallel, and a shared arena would need a lock on the hottest path in
   the compiler.  Handles never cross domains (pool results carry
   schedules, findings and strings, not predicate expressions), so each
   domain interns and memoizes privately; only the three fixed-uid
   constants are shared. *)
type state = {
  intern : t Node_tbl.t;
  mutable next_uid : int;
  and_tbl : t Int_tbl.t;
  or_tbl : t Int_tbl.t;
  not_tbl : t Int_tbl.t;
  dis_tbl : bool Int_tbl.t;
  imp_tbl : bool Int_tbl.t;
}

let seed st =
  Node_tbl.replace st.intern unknown.node unknown;
  Node_tbl.replace st.intern fls.node fls;
  Node_tbl.replace st.intern tru.node tru

let state_key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          intern = Node_tbl.create 1024;
          next_uid = first_uid;
          and_tbl = Int_tbl.create 1024;
          or_tbl = Int_tbl.create 1024;
          not_tbl = Int_tbl.create 256;
          dis_tbl = Int_tbl.create 1024;
          imp_tbl = Int_tbl.create 256;
        }
      in
      seed st;
      st)

let state () = Domain.DLS.get state_key

(* Caps bound a pathological program (or a driver that never calls
   [invalidate]) rather than tune steady state: a full table is dropped
   wholesale and rebuilt warm.  Uid allocation keeps counting across
   drops, preserving the never-reused invariant. *)
let intern_cap = 1 lsl 18
let memo_cap = 1 lsl 16

(* Binary memo keys are the two uids packed into one immediate int, so a
   lookup neither allocates nor runs the polymorphic hash over a tuple.
   Packing is injective while uids stay below 2^31 — reaching that
   ceiling would take billions of interns in one domain, but if it ever
   happens the memo is skipped (losing sharing, never soundness). *)
let pack_limit = 1 lsl 31
let pack a b = (a.uid lsl 31) lor b.uid
let packable a b = a.uid < pack_limit && b.uid < pack_limit

(* Query telemetry: totals and constant short-circuits as before, plus
   the cache-effectiveness triple of the hash-consing layer.  The
   counters are dark (one atomic load each) unless a [--trace] or
   [--json] sink enabled Cpr_obs. *)
module Obs = Cpr_obs.Obs

let q_queries = Obs.counter "pqs.queries"
let q_fast = Obs.counter "pqs.fast_path_hits"
let q_interned = Obs.counter "pqs.interned"
let q_hits = Obs.counter "pqs.memo_hits"
let q_misses = Obs.counter "pqs.memo_misses"

let intern st node conjs =
  match Node_tbl.find_opt st.intern node with
  | Some t -> t
  | None ->
    Obs.incr q_interned;
    let pos_mask, neg_mask = masks_of node in
    let t = { uid = st.next_uid; node; conjs; pos_mask; neg_mask } in
    st.next_uid <- st.next_uid + 1;
    if Node_tbl.length st.intern >= intern_cap then begin
      Node_tbl.reset st.intern;
      seed st
    end;
    Node_tbl.replace st.intern node t;
    t

(* A result of the cache-miss algebra, or a literal from the reference
   constructors. *)
let intern_conjs st = function
  | None -> unknown
  | Some conjs ->
    intern st (R.Dnf (List.map (fun c -> c.lits) conjs)) conjs

let intern_node node =
  intern (state ()) node
    (match node with R.Dnf cs -> List.map conj_of cs | R.Unknown -> [])

let memo1 tbl key compute =
  match Int_tbl.find_opt tbl key with
  | Some r ->
    Obs.incr q_hits;
    r
  | None ->
    Obs.incr q_misses;
    let r = compute () in
    if Int_tbl.length tbl >= memo_cap then Int_tbl.reset tbl;
    Int_tbl.replace tbl key r;
    r

let memo2 tbl a b compute =
  if packable a b then memo1 tbl (pack a b) compute else compute ()

let invalidate () =
  let st = state () in
  Node_tbl.reset st.intern;
  seed st;
  Int_tbl.reset st.and_tbl;
  Int_tbl.reset st.or_tbl;
  Int_tbl.reset st.not_tbl;
  Int_tbl.reset st.dis_tbl;
  Int_tbl.reset st.imp_tbl

(* Program-boundary hook: predicate literals are keyed by op id, so
   cached nodes and memoized answers stay correct across programs —
   invalidation only bounds memory.  Dropping warm caches on every small
   program costs more than it saves, so [trim] resets only once the
   arena has grown past a real program's working set. *)
let trim_threshold = 1 lsl 14

let trim () =
  if Node_tbl.length (state ()).intern > trim_threshold then invalidate ()

let const b = if b then tru else fls

let cond_lit id = intern_node (R.cond_lit id)
let entry_lit r = intern_node (R.entry_lit r)
let is_const_false t = R.is_const_false t.node
let is_const_true t = R.is_const_true t.node
let is_unknown t = R.is_unknown t.node
let equal a b = a == b || (a.uid = b.uid && a.node = b.node)

(* The constant short-circuits mirror the reference engine's match arms
   exactly (including returning the argument handle itself where the
   reference returns the argument), so only genuinely structural
   operands reach the memo tables. *)
let and_ a b =
  if is_unknown a || is_unknown b then unknown
  else if is_const_true a then b
  else if is_const_true b then a
  else if is_const_false a || is_const_false b then fls
  else
    let st = state () in
    memo2 st.and_tbl a b (fun () ->
        intern_conjs st (and_conjs a.conjs b.conjs))

let or_ a b =
  if is_unknown a || is_unknown b then unknown
  else if is_const_false a then b
  else if is_const_false b then a
  else if is_const_true a || is_const_true b then tru
  else
    let st = state () in
    memo2 st.or_tbl a b (fun () -> intern_conjs st (or_conjs a.conjs b.conjs))

let not_ a =
  if is_unknown a then unknown
  else if is_const_true a then fls
  else if is_const_false a then tru
  else
    let st = state () in
    memo1 st.not_tbl a.uid (fun () -> intern_conjs st (not_conjs a.conjs))

let disjoint a b =
  Obs.incr q_queries;
  if is_unknown a || is_unknown b then begin
    Obs.incr q_fast;
    false
  end
  else if is_const_false a || is_const_false b then begin
    Obs.incr q_fast;
    true
  end
  else if a.pos_mask land b.neg_mask = 0 && a.neg_mask land b.pos_mask = 0
  then begin
    (* A disjointness proof needs every conjunction pair to contradict,
       and a pair can only contradict on a key present with opposite
       polarities on the two sides.  No fingerprint overlap means no
       such key exists anywhere, so (both operands being satisfiable
       DNFs here) the proof cannot exist.  Collisions only ever add
       phantom overlaps, which fall through — never a wrong answer. *)
    Obs.incr q_fast;
    false
  end
  else if a.uid = b.uid then
    (* a shared satisfiable node can never contradict itself: every
       conjunction merges with itself *)
    false
  else
    let st = state () in
    memo2 st.dis_tbl a b (fun () -> disjoint_conjs a.conjs b.conjs)

let implies a b =
  Obs.incr q_queries;
  if is_unknown a || is_unknown b then begin
    Obs.incr q_fast;
    false
  end
  else if is_const_false a then begin
    Obs.incr q_fast;
    true
  end
  else if a.uid = b.uid then true
  else
    let st = state () in
    memo2 st.imp_tbl a b (fun () -> implies_conjs a.conjs b.conjs)

let eval assign t = R.eval assign t.node
let keys t = R.keys t.node
let pp ppf t = R.pp ppf t.node
let to_reference t = t.node
