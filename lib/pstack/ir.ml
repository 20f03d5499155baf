type const =
  | Cint of int
  | Cbool of bool
  | Cstr of string
  | Csym of string
  | Cchar of char
  | Cnil
  | Cunit

type quoted =
  | Qint of int
  | Qbool of bool
  | Qstr of string
  | Qsym of string
  | Qchar of char
  | Qnil
  | Qlist of quoted list
  | Qdot of quoted list * quoted

type t =
  | Const of const
  | Quoted of quoted
  | Var of string
  | Lam of lambda
  | App of t * t list
  | If of t * t * t
  | Seq of t list
  | Let of (string * t) list * t
  | Letrec of (string * t) list * t
  | Set of string * t
  | Future of t
  | Pcall of t list

and lambda = { params : string list; rest : string option; body : t }

let int n = Const (Cint n)

let bool b = Const (Cbool b)

let str s = Const (Cstr s)

let sym s = Const (Csym s)

let var x = Var x

let lam params body = Lam { params; rest = None; body }

let lam_rest params rest body = Lam { params; rest = Some rest; body }

let app f args = App (f, args)

let if_ c t e = If (c, t, e)

let let_ bindings body = Let (bindings, body)

let seq es = Seq es

(* Resolved IR: the output of the lexical-addressing pass (Resolve).
   Every variable occurrence is compiled to either a lexical address —
   rib depth and slot within the rib — or a pre-interned global cell, so
   the machine never scans an environment by name.  The type is
   parametric in the runtime value ['v] and global-cell ['g] types so it
   can be defined here without depending on [Types] (which itself
   depends on this module). *)
type ('v, 'g) resolved =
  | Rconst of 'v
  | Rquoted of quoted
  | Rlocal of int * int  (* rib depth, slot *)
  | Rglobal of 'g
  | Rlam of ('v, 'g) rlambda
  | Rapp of ('v, 'g) resolved * ('v, 'g) resolved list
  | Rif of ('v, 'g) resolved * ('v, 'g) resolved * ('v, 'g) resolved
  | Rseq of ('v, 'g) resolved list
  | Rlet of ('v, 'g) resolved list * ('v, 'g) resolved
  | Rletrec of ('v, 'g) resolved list * ('v, 'g) resolved
  | Rset_local of int * int * ('v, 'g) resolved
  | Rset_global of 'g * ('v, 'g) resolved
  | Rfuture of ('v, 'g) resolved
  | Rpcall of ('v, 'g) resolved list

and ('v, 'g) rlambda = {
  rnparams : int;
  rhas_rest : bool;
  rbody : ('v, 'g) resolved;
}

let rec size = function
  | Const _ | Quoted _ | Var _ -> 1
  | Lam { body; _ } -> 1 + size body
  | App (f, args) -> List.fold_left (fun n a -> n + size a) (1 + size f) args
  | If (a, b, c) -> 1 + size a + size b + size c
  | Seq es | Pcall es -> List.fold_left (fun n e -> n + size e) 1 es
  | Let (bs, body) | Letrec (bs, body) ->
      List.fold_left (fun n (_, e) -> n + size e) (1 + size body) bs
  | Set (_, e) | Future e -> 1 + size e

let pp_const ppf = function
  | Cint n -> Format.fprintf ppf "%d" n
  | Cbool true -> Format.fprintf ppf "#t"
  | Cbool false -> Format.fprintf ppf "#f"
  | Cstr s -> Format.fprintf ppf "%S" s
  | Csym s -> Format.fprintf ppf "'%s" s
  | Cchar c -> Format.fprintf ppf "#\\%c" c
  | Cnil -> Format.fprintf ppf "'()"
  | Cunit -> Format.fprintf ppf "#!void"

let rec pp_quoted ppf = function
  | Qint n -> Format.fprintf ppf "%d" n
  | Qbool true -> Format.fprintf ppf "#t"
  | Qbool false -> Format.fprintf ppf "#f"
  | Qstr s -> Format.fprintf ppf "%S" s
  | Qsym s -> Format.fprintf ppf "%s" s
  | Qchar c -> Format.fprintf ppf "#\\%c" c
  | Qnil -> Format.fprintf ppf "()"
  | Qlist qs ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_quoted)
        qs
  | Qdot (qs, tail) ->
      Format.fprintf ppf "(%a . %a)"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_quoted)
        qs pp_quoted tail

let rec pp ppf = function
  | Const c -> pp_const ppf c
  | Quoted q -> Format.fprintf ppf "'%a" pp_quoted q
  | Var x -> Format.fprintf ppf "%s" x
  | Lam { params; rest; body } ->
      let pp_params ppf () =
        match rest with
        | None ->
            Format.fprintf ppf "(%a)"
              (Format.pp_print_list ~pp_sep:Format.pp_print_space
                 Format.pp_print_string)
              params
        | Some r ->
            if params = [] then Format.fprintf ppf "%s" r
            else
              Format.fprintf ppf "(%a . %s)"
                (Format.pp_print_list ~pp_sep:Format.pp_print_space
                   Format.pp_print_string)
                params r
      in
      Format.fprintf ppf "@[<hov 1>(lambda %a@ %a)@]" pp_params () pp body
  | App (f, args) ->
      Format.fprintf ppf "@[<hov 1>(%a%a)@]" pp f pp_tail args
  | If (a, b, c) ->
      Format.fprintf ppf "@[<hov 1>(if %a@ %a@ %a)@]" pp a pp b pp c
  | Seq es -> Format.fprintf ppf "@[<hov 1>(begin%a)@]" pp_tail es
  | Let (bs, body) ->
      Format.fprintf ppf "@[<hov 1>(let (%a)@ %a)@]" pp_bindings bs pp body
  | Letrec (bs, body) ->
      Format.fprintf ppf "@[<hov 1>(letrec (%a)@ %a)@]" pp_bindings bs pp body
  | Set (x, e) -> Format.fprintf ppf "@[<hov 1>(set! %s@ %a)@]" x pp e
  | Future e -> Format.fprintf ppf "@[<hov 1>(future@ %a)@]" pp e
  | Pcall es -> Format.fprintf ppf "@[<hov 1>(pcall%a)@]" pp_tail es

and pp_tail ppf = function
  | [] -> ()
  | e :: rest ->
      Format.fprintf ppf "@ %a" pp e;
      pp_tail ppf rest

and pp_bindings ppf bs =
  Format.pp_print_list ~pp_sep:Format.pp_print_space
    (fun ppf (x, e) -> Format.fprintf ppf "[%s %a]" x pp e)
    ppf bs

let to_string e = Format.asprintf "%a" pp e
