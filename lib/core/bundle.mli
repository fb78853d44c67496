(** Design-time bundles.

    The paper has updates "choosing among a set of patterns published at
    schema design time" (Section 7, footnote 4).  A bundle is that
    artifact: a plain-text file carrying the constraint sources, the
    update-pattern templates and the {e pre-simplified} checks, so
    reviewers can audit exactly which residual checks guard each
    pattern ([xicheck publish]).  It is written for reading; nothing
    loads it back. *)

val save : Repository.t -> string
(** Serialize the repository's constraints, patterns and their compiled
    simplified checks (not the documents). *)

val save_file : Repository.t -> string -> unit
