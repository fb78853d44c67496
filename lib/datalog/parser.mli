(** Concrete syntax for Datalog denials.

    {v
    :- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)
    :- p(X, Y), p(X, Z), Y != Z
    :- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4
    :- q(X), sum(V; r(X, V)) >= 10
    :- person(%i, N), N != %n
    v}

    Conventions: capitalized identifiers are variables, [_] is a fresh
    anonymous variable per occurrence, [%name] is a parameter, quoted
    strings and integers are constants, [not] negates an atom, and commas
    or [and] separate body literals.  Aggregates are
    [cnt]/[cntd]/[sum]/[sumd]/[max]/[min]; [sum(V; atom)] sums variable
    [V].  A leading [:-] or [<-] introduces the denial. *)

exception Parse_error of string

val parse_denial : ?label:string -> string -> Term.denial
val parse_denials : string -> Term.denial list
(** Parse a newline/[.]-separated list of denials; blank lines and [--]
    comments are skipped. *)

val parse_atom : string -> Term.atom
