(** Evaluation contexts and decomposition.

    Section 6 defines evaluation contexts

    {v C → □ | C e | v C | l : C v}

    extended here with the [If] scrutinee position and the argument position
    of [spawn] (in Scheme, [spawn] is a procedure, so its argument is
    evaluated; the paper's rewrite rule applies once the argument is a
    value).  A context is represented inside-out as a list of frames,
    innermost first, so plugging is a left fold and searching for the nearest
    enclosing label — the side condition of rewrite rule (3) — is a linear
    scan. *)

type frame =
  | Fapp_fun of Term.term  (** [□ e]: the hole is the operator *)
  | Fapp_arg of Term.term  (** [v □]: the hole is the operand *)
  | Flabel of Term.label  (** [l : □] *)
  | Fif of Term.term * Term.term  (** [if □ e2 e3] *)
  | Fspawn  (** [spawn □] *)

type t = frame list
(** Innermost frame first; [\[\]] is the empty context [□]. *)

val plug : t -> Term.term -> Term.term
(** [plug c e] is [C\[e\]]. *)

val split_at_label : Term.label -> t -> (t * t) option
(** [split_at_label l c] splits [c] as [(inner, outer)] where [inner] is the
    largest prefix of [c] not containing a frame [Flabel l] — the context
    [C2] of rule (3), for which [l] does not label [C2] — and [outer] is the
    rest of [c] with the matching [Flabel l] frame already removed.  [None]
    if no frame carries [l], in which case a control expression [e ↑ l] is
    stuck (an invalid controller application in the paper's terms). *)

val labels : t -> Term.label list
(** Labels of all [Flabel] frames, innermost first. *)

val pp : Format.formatter -> t -> unit
