(** The intensional rule base, with dependency analysis.

    The rule base is static across query-processing contexts (Section 2.1 of
    the paper: "the rule base, encoded as the inference graph G, is static").
    Beyond rule storage it provides the predicate dependency graph used to
    detect recursion (inference-graph construction requires a non-recursive
    rule base, or bounded unfolding) and the stratification used by the
    semi-naive engine to evaluate negation. *)

type t

val create : unit -> t
val add : t -> Clause.t -> unit
val of_list : Clause.t list -> t
val to_list : t -> Clause.t list
val size : t -> int

(** Rules whose head predicate is the given one, in insertion order. *)
val rules_for : t -> Symbol.t -> Clause.t list

(** [has_rules rb pred] = [rules_for rb pred <> []], without building the
    list. *)
val has_rules : t -> Symbol.t -> bool

(** Rules whose head unifies with the goal, each paired with the unifier of
    head and goal (clauses are standardized apart at generation [gen]). *)
val resolving : t -> gen:int -> Atom.t -> (Clause.t * Subst.t) list

(** Predicates defined by at least one rule (intensional predicates). *)
val idb_preds : t -> Symbol.t list

(** Predicates that occur in rule bodies but have no rules (extensional). *)
val edb_preds : t -> Symbol.t list

(** Does any cycle exist in the predicate dependency graph? *)
val is_recursive : t -> bool

(** Is this predicate involved in a dependency cycle? *)
val pred_recursive : t -> Symbol.t -> bool

(** Stratification: a list of strata (lowest first), each a list of IDB
    predicates, such that negative dependencies never point within or above
    a stratum. Returns [Error cycle] if a negative cycle makes the program
    unstratifiable. *)
val stratify : t -> (Symbol.t list list, Symbol.t list) result

(** Check that all rules are range-restricted; returns offending clauses. *)
val check_safe : t -> (unit, (Clause.t * Term.var list) list) result

val pp : Format.formatter -> t -> unit
