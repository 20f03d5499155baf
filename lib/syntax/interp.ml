module Pstack = Pcont_pstack

type mode = Sequential | Concurrent of Pstack.Concur.sched

type t = {
  ienv : Pstack.Types.genv;
  icfg : Pstack.Machine.config;
  imacros : Macro.table;
}

type result = Value of Pstack.Types.value | Defined of string | Error of string

let result_to_string = function
  | Value v -> Pstack.Value.to_string v
  | Defined x -> Printf.sprintf "#<defined %s>" x
  | Error msg -> "error: " ^ msg

let env t = t.ienv

let config t = t.icfg

let macros t = t.imacros

let eval_ir ?(mode = Sequential) ?fuel ?quantum ?obs t ir =
  match mode with
  | Sequential -> (
      (* No scheduler, so no event stream — but the machine's size
         distributions are still worth recording while a handle is given. *)
      t.icfg.Pstack.Machine.metrics <-
        Option.map Pcont_obs.Obs.metrics obs;
      match Pstack.Run.eval_ir ?fuel ~cfg:t.icfg t.ienv ir with
      | Pstack.Run.Value v -> Ok v
      | Pstack.Run.Error msg -> Stdlib.Error msg
      | Pstack.Run.Out_of_fuel -> Stdlib.Error "out of fuel")
  | Concurrent sched -> (
      match
        Pstack.Concur.run ?fuel ?quantum ?obs ~sched ~cfg:t.icfg t.ienv ir
      with
      | Pstack.Concur.Value v -> Ok v
      | Pstack.Concur.Error msg -> Stdlib.Error msg
      | Pstack.Concur.Out_of_fuel -> Stdlib.Error "out of fuel"
      | Pstack.Concur.Deadlock msg -> Stdlib.Error ("deadlock: " ^ msg))

let eval_top ?mode ?fuel ?quantum ?obs t top =
  match top with
  | Expand.Expr ir -> (
      match eval_ir ?mode ?fuel ?quantum ?obs t ir with
      | Ok v -> Value v
      | Stdlib.Error msg -> Error msg)
  | Expand.Defsyntax name -> Defined name
  | Expand.Define (x, ir) -> (
      match eval_ir ?mode ?fuel ?quantum ?obs t ir with
      | Ok v ->
          Pstack.Env.define_global t.ienv x v;
          Defined x
      | Stdlib.Error msg -> Error msg)

let eval_string ?mode ?fuel ?quantum ?obs t src =
  match Expand.parse_program ~macros:t.imacros src with
  | Stdlib.Error msg -> [ Error msg ]
  | Ok tops ->
      let rec go acc = function
        | [] -> List.rev acc
        | top :: rest -> (
            match eval_top ?mode ?fuel ?quantum ?obs t top with
            | Error _ as e -> List.rev (e :: acc)
            | r -> go (r :: acc) rest)
      in
      go [] tops

let eval_value ?mode ?fuel ?quantum ?obs t src =
  match eval_string ?mode ?fuel ?quantum ?obs t src with
  | [] -> failwith "empty program"
  | results -> (
      match List.rev results with
      | Value v :: _ -> v
      | Defined x :: _ -> failwith ("last form is a definition: " ^ x)
      | Error msg :: _ -> failwith msg
      | [] -> assert false)

let create ?(prelude = true) ?strategy ?fastpath () =
  let t =
    {
      ienv = Pstack.Prims.base_env ();
      icfg = Pstack.Machine.config ?strategy ?fastpath ();
      imacros = Macro.create ();
    }
  in
  if prelude then begin
    let results = eval_string t Prelude.source in
    List.iter
      (function
        | Error msg -> failwith ("prelude failed to load: " ^ msg)
        | Value _ | Defined _ -> ())
      results
  end;
  t

let take_output = Pstack.Prims.take_output
