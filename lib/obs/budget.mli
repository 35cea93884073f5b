(** Allocation budgets for the simulator's hot kernels.

    A checked-in table of [minor_words_per_run] ceilings for the bench
    [--micro] kernels, plus a comparator that loads a bench [--json] report
    and flags overruns. `bench/main.exe --micro --check-budgets` (wired
    into [dune runtest] by a runtest-only rule in bench/dune) fails when
    any budgeted micro allocates more than
    [budget * (1 + tolerance) + slack_words] —
    the regression gate for the allocation-free co-simulation roadmap
    item. *)

type entry = { name : string; minor_words_per_run : float }

val table : entry list
(** The checked-in budgets. Ordered as the micros run. *)

val find : string -> entry option

val default_tolerance : float
(** 0.10: a micro may exceed its ceiling by 10% before failing. *)

val slack_words : float
(** Absolute slack added to every limit so zero-word budgets tolerate
    measurement noise (boxed counter samples, OLS residue). *)

val limit : ?tolerance:float -> entry -> float
(** [budget * (1 + tolerance) + slack_words]. *)

type status = Pass | Fail | Missing

type verdict = {
  entry : entry;
  measured : float option;  (** [None] when the report lacks the micro. *)
  limit : float;
  status : status;
}

val check_measured :
  ?tolerance:float -> ?budgets:entry list -> (string * float) list ->
  verdict list
(** Compare measured [(name, minor_words_per_run)] pairs against the
    budgets ([table] by default; injectable for tests). One verdict per
    budget entry, in table order. *)

val ok : verdict list -> bool
(** Every verdict is [Pass] — a budgeted micro [Missing] from the report
    fails too, so the table cannot rot silently. *)

val status_name : status -> string

val check_report :
  ?tolerance:float -> ?budgets:entry list -> string ->
  (verdict list, string) result
(** Parse a bench [--json] report (any schema version with a ["micro"]
    array) and compare its [minor_words_per_run] estimates. [Error] on
    malformed JSON or a report without micros. *)
