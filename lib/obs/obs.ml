external now_ns : unit -> (int64[@unboxed])
  = "cpr_obs_monotonic_ns_byte" "cpr_obs_monotonic_ns_unboxed"
[@@noalloc]

(* One atomic read guards every recording entry point: the disabled path
   must cost a load and a branch, nothing else. *)
let on = Atomic.make false
let enabled () = Atomic.get on

type event = {
  name : string;
  track : int;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  args : (string * string) list;
}

(* Global state: the event log and gauge table share one mutex, taken
   once per span exit / gauge write.  Counters are individually atomic
   and never touch the mutex after creation. *)
let mutex = Mutex.create ()
let recorded : event list ref = ref [] (* newest first *)
let gauge_tbl : (string * float) list ref = ref []
let epoch = ref 0L

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

type counter = { cname : string; cell : int Atomic.t }

let registry : counter list ref = ref []

let counter name =
  locked (fun () ->
      match List.find_opt (fun c -> c.cname = name) !registry with
      | Some c -> c
      | None ->
        let c = { cname = name; cell = Atomic.make 0 } in
        registry := c :: !registry;
        c)

let incr c = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell 1 : int)

let add c n =
  if Atomic.get on && n <> 0 then ignore (Atomic.fetch_and_add c.cell n : int)

let counter_value c = Atomic.get c.cell

let counters () =
  let cs = locked (fun () -> !registry) in
  List.sort compare
    (List.filter_map
       (fun c ->
         let v = Atomic.get c.cell in
         if v = 0 then None else Some (c.cname, v))
       cs)

let gauge name v =
  if Atomic.get on then
    locked (fun () ->
        gauge_tbl := (name, v) :: List.remove_assoc name !gauge_tbl)

let gauges () = List.sort compare (locked (fun () -> !gauge_tbl))

let set_enabled v =
  if v && !epoch = 0L then epoch := now_ns ();
  Atomic.set on v

let reset () =
  locked (fun () ->
      recorded := [];
      gauge_tbl := [];
      List.iter (fun c -> Atomic.set c.cell 0) !registry);
  epoch := now_ns ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

(* Nesting depth lives in domain-local storage: each domain runs its
   spans serially, so a per-domain counter incremented at entry is
   exactly the tree depth, with no interval arithmetic at record time. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let span ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let my_depth = !d in
    d := my_depth + 1;
    let t0 = now_ns () in
    let finally () =
      let t1 = now_ns () in
      d := my_depth;
      let e =
        {
          name;
          track = (Domain.self () :> int);
          start_ns = t0;
          dur_ns = Int64.sub t1 t0;
          depth = my_depth;
          args;
        }
      in
      locked (fun () -> recorded := e :: !recorded)
    in
    Fun.protect ~finally f
  end

let events () =
  let es = locked (fun () -> !recorded) in
  List.stable_sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.depth b.depth
      | c -> c)
    es

(* ------------------------------------------------------------------ *)
(* Summary tree                                                        *)

module Summary = struct
  type node = {
    name : string;
    count : int;
    total_ns : int64;
    children : node list;
  }

  type agg = {
    mutable acount : int;
    mutable atotal : int64;
    mutable akids : (string * agg) list; (* reverse insertion order *)
  }

  let get_kid parent name =
    match List.assoc_opt name parent.akids with
    | Some a -> a
    | None ->
      let a = { acount = 0; atotal = 0L; akids = [] } in
      parent.akids <- (name, a) :: parent.akids;
      a

  (* Events arrive sorted by (start, depth); a stack of (depth, agg)
     rebuilds the nesting: an event's parent is the deepest stack entry
     shallower than it.  Tracks are processed separately (their spans
     interleave in time) and merged by landing in the same root table. *)
  let tree () =
    let root = { acount = 0; atotal = 0L; akids = [] } in
    let all = events () in
    let tracks = List.sort_uniq compare (List.map (fun e -> e.track) all) in
    List.iter
      (fun t ->
        let stack = ref [] in
        List.iter
          (fun e ->
            if e.track = t then begin
              while
                match !stack with
                | (d, _) :: rest when d >= e.depth ->
                  stack := rest;
                  true
                | _ -> false
              do
                ()
              done;
              let parent =
                match !stack with [] -> root | (_, a) :: _ -> a
              in
              let a = get_kid parent e.name in
              a.acount <- a.acount + 1;
              a.atotal <- Int64.add a.atotal e.dur_ns;
              stack := (e.depth, a) :: !stack
            end)
          all)
      tracks;
    let rec freeze a =
      let kids =
        List.map (fun (name, k) -> { (freeze k) with name }) (List.rev a.akids)
      in
      {
        name = "";
        count = a.acount;
        total_ns = a.atotal;
        children =
          List.sort (fun x y -> Int64.compare y.total_ns x.total_ns) kids;
      }
    in
    (freeze root).children

  let pp ppf () =
    let rec go indent n =
      Format.fprintf ppf "%s%-*s %6d x %10.3f ms@." indent
        (max 1 (36 - String.length indent))
        n.name n.count
        (Int64.to_float n.total_ns /. 1e6);
      List.iter (go (indent ^ "  ")) n.children
    in
    List.iter (go "") (tree ());
    match counters () with
    | [] -> ()
    | cs ->
      Format.fprintf ppf "counters:@.";
      List.iter (fun (n, v) -> Format.fprintf ppf "  %-34s %10d@." n v) cs
end

(* ------------------------------------------------------------------ *)
(* JSON: the one escaper, printer and reader                          *)

module Json = struct
  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse_exn s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = pos := !pos + 1 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance ()
      else fail (Printf.sprintf "expected %c" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let utf8 b code =
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code -> utf8 b code
            | None -> fail "bad \\u escape");
            go ()
          | _ -> fail "bad escape")
        | Some c when Char.code c < 0x20 -> fail "unescaped control character"
        | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c when is_num_char c -> true | _ -> false do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "bad number"
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (string_lit ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elements [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (number ())
      | None -> fail "unexpected end of input"
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let parse s = try Ok (parse_exn s) with Bad msg -> Error msg

  (* Fifteen significant digits always survive a decimal -> double ->
     decimal trip, so starting there finds the shortest form that
     parses back to [f]. *)
  let number f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f then Printf.sprintf "%.0f" f
    else
      let rec shortest p =
        let s = Printf.sprintf "%.*g" p f in
        if p >= 17 || float_of_string s = f then s else shortest (p + 1)
      in
      shortest 15

  (* A container's brackets and members, each member with the text that
     precedes its value (the quoted key, for an object). *)
  let container = function
    | Arr vs -> Some ('[', ']', List.map (fun v -> ("", v)) vs)
    | Obj kvs ->
      Some
        ('{', '}', List.map (fun (k, v) -> ("\"" ^ escape k ^ "\": ", v)) kvs)
    | Null | Bool _ | Num _ | Str _ -> None

  let rec one_line v =
    match (v, container v) with
    | _, Some (l, r, []) -> Printf.sprintf "%c%c" l r
    | _, Some (l, r, ms) ->
      Printf.sprintf "%c %s %c" l
        (String.concat ", " (List.map (fun (p, v) -> p ^ one_line v) ms))
        r
    | Num f, None -> number f
    | Str s, None -> "\"" ^ escape s ^ "\""
    | Bool b, None -> string_of_bool b
    | _ -> "null"

  let to_string v =
    let b = Buffer.create 1024 in
    let rec go indent v =
      let flat = one_line v in
      match container v with
      | Some (l, r, ms) when String.length flat > 80 ->
        let pad n = "\n" ^ String.make n ' ' in
        Buffer.add_char b l;
        List.iteri
          (fun i (p, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b (pad (indent + 2) ^ p);
            go (indent + 2) v)
          ms;
        Buffer.add_string b (pad indent);
        Buffer.add_char b r
      | _ -> Buffer.add_string b flat
    in
    go 0 v;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Chrome trace                                                        *)

module Trace = struct
  let us_of ns = Int64.to_float (Int64.sub ns !epoch) /. 1e3

  let to_string () =
    let es = events () in
    let b = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let sep = ref "" in
    let entry fmt =
      Buffer.add_string b !sep;
      sep := ",\n";
      add fmt
    in
    add "{\"traceEvents\":[\n";
    entry
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"cpr\"}}";
    List.iter
      (fun t ->
        entry
          "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"domain-%d\"}}"
          t t)
      (List.sort_uniq compare (List.map (fun e -> e.track) es));
    let end_us = ref 0.0 in
    List.iter
      (fun e ->
        let ts = us_of e.start_ns in
        let dur = Int64.to_float e.dur_ns /. 1e3 in
        end_us := Float.max !end_us (ts +. dur);
        entry
          "{\"name\":\"%s\",\"cat\":\"cpr\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d"
          (Json.escape e.name) ts dur e.track;
        if e.args <> [] then begin
          add ",\"args\":{";
          List.iteri
            (fun i (k, v) ->
              add "%s\"%s\":\"%s\""
                (if i = 0 then "" else ",")
                (Json.escape k) (Json.escape v))
            e.args;
          add "}"
        end;
        add "}")
      es;
    List.iter
      (fun (n, v) ->
        entry
          "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,\"args\":{\"value\":%d}}"
          (Json.escape n) !end_us v)
      (counters ());
    List.iter
      (fun (n, v) ->
        entry
          "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,\"args\":{\"value\":%.6f}}"
          (Json.escape n) !end_us v)
      (gauges ());
    add "\n]}\n";
    Buffer.contents b

  let export ~path =
    let oc = open_out path in
    output_string oc (to_string ());
    close_out oc

  type parsed_event = {
    pname : string;
    pph : string;
    ptid : int;
    pts : float;
    pdur : float;
  }

  let parse text =
    let open Json in
    match parse_exn text with
    | exception Bad msg -> Error msg
    | Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr evs) -> (
        try
          Ok
            (List.map
               (function
                 | Obj f ->
                   let str k =
                     match List.assoc_opt k f with
                     | Some (Str s) -> s
                     | _ -> raise (Bad ("event missing " ^ k))
                   in
                   let num ?default k =
                     match (List.assoc_opt k f, default) with
                     | Some (Num x), _ -> x
                     | None, Some d -> d
                     | _ -> raise (Bad ("event missing " ^ k))
                   in
                   {
                     pname = str "name";
                     pph = str "ph";
                     ptid = int_of_float (num ~default:0.0 "tid");
                     pts = num ~default:0.0 "ts";
                     pdur = num ~default:0.0 "dur";
                   }
                 | _ -> raise (Bad "non-object event"))
               evs)
        with Bad msg -> Error msg)
      | _ -> Error "no traceEvents array")
    | _ -> Error "not a JSON object"
end
