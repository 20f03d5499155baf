open Reader

type rule = { pattern : datum; template : datum }

type def = { keywords : string list; rules : rule list }

type table = (string, def) Hashtbl.t

let create () : table = Hashtbl.create 16

let names tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)
(* ------------------------------------------------------------------ *)

(* A variable binds either a single datum or, under an ellipsis, the list
   of its bindings across the repetitions (nesting once per ellipsis). *)
type binding = Bone of datum | Bmany of binding list

type env = (string * binding) list

let is_ellipsis = function Dsym "..." -> true | _ -> false

(* Variables of a pattern (w.r.t. the keyword list). *)
let rec pattern_vars keywords acc = function
  | Dsym "..." | Dsym "_" -> acc
  | Dsym s -> if List.mem s keywords then acc else s :: acc
  | Dlist ds -> List.fold_left (pattern_vars keywords) acc ds
  | Ddot (ds, tail) ->
      pattern_vars keywords (List.fold_left (pattern_vars keywords) acc ds) tail
  | Dint _ | Dbool _ | Dstr _ | Dchar _ -> acc

let rec match_pat keywords pat d (env : env) : env option =
  match (pat, d) with
  | Dsym "_", _ -> Some env
  | Dsym s, _ when List.mem s keywords ->
      if d = Dsym s then Some env else None
  | Dsym s, _ -> Some ((s, Bone d) :: env)
  | (Dint _ | Dbool _ | Dstr _ | Dchar _), _ -> if pat = d then Some env else None
  | Dlist ps, Dlist ds -> match_seq keywords ps ds env
  | Dlist _, _ -> None
  | Ddot (ps, ptail), _ -> (
      (* peel the fixed prefix, then match the tail pattern *)
      match (ps, d) with
      | [], _ -> match_pat keywords ptail d env
      | p :: prest, Dlist (x :: xs) -> (
          match match_pat keywords p x env with
          | Some env -> match_pat keywords (Ddot (prest, ptail)) (Dlist xs) env
          | None -> None)
      | p :: prest, Ddot (x :: xs, dtail) -> (
          match match_pat keywords p x env with
          | Some env ->
              let rest = match xs with [] -> dtail | _ -> Ddot (xs, dtail) in
              match_pat keywords (Ddot (prest, ptail)) rest env
          | None -> None)
      | _ -> None)

(* Match a list of patterns (with at most one ellipsis at this level)
   against a list of data. *)
and match_seq keywords ps ds env =
  let rec split_at_ellipsis pre = function
    | p :: e :: post when is_ellipsis e -> Some (List.rev pre, p, post)
    | p :: rest -> split_at_ellipsis (p :: pre) rest
    | [] -> None
  in
  match split_at_ellipsis [] ps with
  | None ->
      (* plain positional match *)
      let rec go ps ds env =
        match (ps, ds) with
        | [], [] -> Some env
        | p :: ps, d :: ds -> (
            match match_pat keywords p d env with
            | Some env -> go ps ds env
            | None -> None)
        | _ -> None
      in
      go ps ds env
  | Some (pre, rep, post) ->
      let npre = List.length pre and npost = List.length post in
      if List.length ds < npre + npost then None
      else begin
        let rec take n xs acc =
          if n = 0 then (List.rev acc, xs)
          else match xs with x :: rest -> take (n - 1) rest (x :: acc) | [] -> assert false
        in
        let ds_pre, rest = take npre ds [] in
        let nmid = List.length rest - npost in
        let ds_mid, ds_post = take nmid rest [] in
        match match_seq keywords pre ds_pre env with
        | None -> None
        | Some env -> (
            (* Each repetition matches in a fresh sub-environment; the
               repeated variables then bind Bmany of their sequences. *)
            let vars = List.sort_uniq compare (pattern_vars keywords [] rep) in
            let rec reps acc = function
              | [] -> Some (List.rev acc)
              | d :: ds -> (
                  match match_pat keywords rep d [] with
                  | Some sub -> reps (sub :: acc) ds
                  | None -> None)
            in
            match reps [] ds_mid with
            | None -> None
            | Some subs ->
                let env =
                  List.fold_left
                    (fun env v ->
                      let per_rep =
                        List.map
                          (fun sub ->
                            match List.assoc_opt v sub with
                            | Some b -> b
                            | None -> Bone (Dsym v) (* unreachable: v ∈ vars *))
                          subs
                      in
                      (v, Bmany per_rep) :: env)
                    env vars
                in
                match_seq keywords post ds_post env)
      end

(* ------------------------------------------------------------------ *)
(* Template expansion                                                  *)
(* ------------------------------------------------------------------ *)

exception Template_error of string

let tfail fmt = Format.kasprintf (fun m -> raise (Template_error m)) fmt

(* Template variables that are bound in the environment. *)
let rec template_vars env acc = function
  | Dsym s -> if List.mem_assoc s env then s :: acc else acc
  | Dlist ds -> List.fold_left (template_vars env) acc ds
  | Ddot (ds, tail) -> template_vars env (List.fold_left (template_vars env) acc ds) tail
  | Dint _ | Dbool _ | Dstr _ | Dchar _ -> acc

let rec subst env = function
  | Dsym s as d -> (
      match List.assoc_opt s env with
      | Some (Bone d') -> d'
      | Some (Bmany _) -> tfail "pattern variable %s used at the wrong ellipsis depth" s
      | None -> d)
  | (Dint _ | Dbool _ | Dstr _ | Dchar _) as d -> d
  | Dlist ts -> Dlist (subst_seq env ts)
  | Ddot (ts, tail) -> (
      (* Normalize: a dotted template whose tail substitutes to a list is a
         proper list, e.g. the template (f . args) with args = (1 2 3). *)
      let front = subst_seq env ts in
      match (front, subst env tail) with
      | [], tail -> tail
      | front, Dlist ds -> Dlist (front @ ds)
      | front, Ddot (ds, t) -> Ddot (front @ ds, t)
      | front, tail -> Ddot (front, tail))

and subst_seq env = function
  | [] -> []
  | t :: e :: rest when is_ellipsis e ->
      let vars =
        List.sort_uniq compare (template_vars env [] t)
        |> List.filter (fun v ->
               match List.assoc_opt v env with Some (Bmany _) -> true | _ -> false)
      in
      if vars = [] then tfail "ellipsis template with no repeated variables";
      let lengths =
        List.map
          (fun v ->
            match List.assoc v env with Bmany bs -> List.length bs | Bone _ -> assert false)
          vars
      in
      let n = List.hd lengths in
      if not (List.for_all (( = ) n) lengths) then
        tfail "ellipsis variables repeat a different number of times";
      let expansions =
        List.init n (fun i ->
            let env_i =
              List.map
                (fun (v, b) ->
                  match b with
                  | Bmany bs when List.mem v vars -> (v, List.nth bs i)
                  | _ -> (v, b))
                env
            in
            subst env_i t)
      in
      expansions @ subst_seq env rest
  | t :: rest -> subst env t :: subst_seq env rest

(* ------------------------------------------------------------------ *)
(* Definition and use                                                  *)
(* ------------------------------------------------------------------ *)

let parse_rule = function
  | Dlist [ pattern; template ] -> Ok { pattern; template }
  | d -> Error ("extend-syntax: bad rule " ^ Reader.to_string d)

let define tbl = function
  | Dlist (Dsym "extend-syntax" :: Dlist (Dsym name :: kws) :: rule_data)
    when rule_data <> [] -> (
      let keywords =
        List.fold_left
          (fun acc k -> match (acc, k) with
            | Ok ks, Dsym s -> Ok (s :: ks)
            | Ok _, d -> Error ("extend-syntax: bad keyword " ^ Reader.to_string d)
            | (Error _ as e), _ -> e)
          (Ok [ name ]) kws
      in
      match keywords with
      | Error e -> Error e
      | Ok keywords -> (
          let rec rules acc = function
            | [] -> Ok (List.rev acc)
            | d :: rest -> (
                match parse_rule d with
                | Ok r -> rules (r :: acc) rest
                | Error e -> Error e)
          in
          match rules [] rule_data with
          | Error e -> Error e
          | Ok rules ->
              Hashtbl.replace tbl name { keywords; rules };
              Ok name))
  | d -> Error ("malformed extend-syntax: " ^ Reader.to_string d)

let try_expand tbl d =
  match d with
  | Dlist (Dsym name :: _) -> (
      match Hashtbl.find_opt tbl name with
      | None -> Ok None
      | Some { keywords; rules } ->
          let rec go = function
            | [] ->
                Error
                  (Printf.sprintf "%s: no extend-syntax rule matches %s" name
                     (Reader.to_string d))
            | { pattern; template } :: rest -> (
                match match_pat keywords pattern d [] with
                | Some env -> (
                    match subst env template with
                    | t -> Ok (Some t)
                    | exception Template_error m -> Error (name ^ ": " ^ m))
                | None -> go rest)
          in
          go rules)
  | _ -> Ok None
