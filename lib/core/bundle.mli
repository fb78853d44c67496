(** Design-time bundles.

    The paper has updates "choosing among a set of patterns published at
    schema design time" (Section 7, footnote 4).  A bundle is that
    artifact: a plain-text file carrying the constraint sources, the
    update-pattern templates and the {e pre-simplified} checks, so a
    runtime can load everything without re-running [Simp], and reviewers
    can audit exactly which residual checks guard each pattern. *)

exception Bundle_error of string

val save : Repository.t -> string
(** Serialize the repository's constraints, patterns and their compiled
    simplified checks (not the documents). *)

val save_file : Repository.t -> string -> unit

val load : Schema.t -> string -> Repository.t
(** Rebuild a repository (without documents) from a bundle: constraints
    are recompiled from their sources, patterns re-derived from their
    templates, and the stored simplified checks installed verbatim after
    validation against freshly computed ones.
    @raise Bundle_error on malformed bundles or on a mismatch between
    stored and recomputed checks (a stale bundle). *)
