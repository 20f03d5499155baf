open Types

let list_to_values v =
  let rec go acc = function
    | Nil -> Some (List.rev acc)
    | Pair { car; cdr } -> go (car :: acc) cdr
    | _ -> None
  in
  go [] v

let cons a d = Pair { car = a; cdr = d }

let values_to_list vs = List.fold_right cons vs Nil

let is_truthy = function Bool false -> false | _ -> true

let eqv a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | Sym x, Sym y -> String.equal x y
  | Char x, Char y -> x = y
  | Nil, Nil | Unit, Unit | Undef, Undef -> true
  | Str x, Str y -> x == y
  | Pair x, Pair y -> x == y
  | Vector x, Vector y -> x == y
  | _ -> a == b

let rec equal a b =
  match (a, b) with
  | Pair x, Pair y -> equal x.car y.car && equal x.cdr y.cdr
  | Vector x, Vector y ->
      Array.length x = Array.length y
      && begin
           let ok = ref true in
           Array.iteri (fun i xi -> if not (equal xi y.(i)) then ok := false) x;
           !ok
         end
  | Str x, Str y -> String.equal x y
  | _ -> eqv a b

let rec pp_gen ~display ppf v =
  match v with
  | Int n -> Format.fprintf ppf "%d" n
  | Bool true -> Format.fprintf ppf "#t"
  | Bool false -> Format.fprintf ppf "#f"
  | Str s -> if display then Format.fprintf ppf "%s" s else Format.fprintf ppf "%S" s
  | Sym s -> Format.fprintf ppf "%s" s
  | Char c -> if display then Format.fprintf ppf "%c" c else Format.fprintf ppf "#\\%c" c
  | Nil -> Format.fprintf ppf "()"
  | Unit -> Format.fprintf ppf "#!void"
  | Undef -> Format.fprintf ppf "#!undefined"
  | Pair _ -> pp_list ~display ppf v
  | Vector a ->
      Format.fprintf ppf "#(";
      Array.iteri
        (fun i x ->
          if i > 0 then Format.fprintf ppf " ";
          pp_gen ~display ppf x)
        a;
      Format.fprintf ppf ")"
  | Closure _ -> Format.fprintf ppf "#<procedure>"
  | Prim p -> Format.fprintf ppf "#<procedure %s>" p.pname
  | Controller l -> Format.fprintf ppf "#<controller %d>" l
  | Pk pk -> Format.fprintf ppf "#<process-continuation %d>" pk.pk_label
  | Pktree pkt -> Format.fprintf ppf "#<process-continuation %d (tree)>" pkt.pkt_label
  | Cont _ -> Format.fprintf ppf "#<continuation>"
  | Future { fvalue = None; _ } -> Format.fprintf ppf "#<future (pending)>"
  | Future { fvalue = Some _; _ } -> Format.fprintf ppf "#<future (resolved)>"
  | Fcont _ -> Format.fprintf ppf "#<functional-continuation>"

and pp_list ~display ppf v =
  Format.fprintf ppf "(";
  let rec go first = function
    | Nil -> ()
    | Pair { car; cdr } ->
        if not first then Format.fprintf ppf " ";
        pp_gen ~display ppf car;
        go false cdr
    | other ->
        Format.fprintf ppf " . ";
        pp_gen ~display ppf other
  in
  go true v;
  Format.fprintf ppf ")"

let pp ppf v = pp_gen ~display:false ppf v

let pp_display ppf v = pp_gen ~display:true ppf v

let to_string v = Format.asprintf "%a" pp v

let display_string v = Format.asprintf "%a" pp_display v
