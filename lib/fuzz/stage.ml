open Cpr_ir
module P = Cpr_pipeline

type t = {
  name : string;
  descr : string;
  apply : ?prepared:Prog.t -> Prog.t -> Cpr_sim.Equiv.input list -> Prog.t;
}

(* The driver verifies candidates itself (when asked to), with the
   findings routed into its outcome accounting — so the Passes-internal
   verification is off in every [apply] below. *)
let of_pass (st : P.Passes.stage) =
  {
    name = st.P.Passes.name;
    descr = st.P.Passes.descr;
    apply =
      (fun ?prepared prog inputs ->
        (P.Passes.run ~verify:false ?prepared st prog inputs).P.Passes.prog);
  }

(* The end-to-end combination: if-conversion and unrolling upstream of
   ICBM, the way a production pipeline would compose them, each step
   the stage table's own transform. *)
let full_pipeline ?prepared prog inputs =
  let p =
    match prepared with
    | Some p -> Prog.copy p
    | None -> P.Passes.prepare prog inputs
  in
  let step name =
    let st = Option.get (P.Passes.find_stage name) in
    ignore (st.P.Passes.transform Cpr_core.Heur.default p : _ option)
  in
  step "ifconv";
  step "unroll";
  P.Passes.profile p inputs;
  step "icbm";
  Validate.check_exn p;
  P.Passes.profile p inputs;
  p

let all =
  List.map of_pass P.Passes.stages
  @ [
      {
        name = "fullpipe";
        descr = "if-conversion + unrolling + ICBM, end to end";
        apply = full_pipeline;
      };
    ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = String.concat "," (List.map (fun s -> s.name) all)

let parse spec =
  if spec = "all" then Ok all
  else
    let parts = String.split_on_char ',' spec in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match find (String.trim p) with
        | Some s -> go (s :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown stage %S (expected one of %s)" p names))
    in
    go [] parts
