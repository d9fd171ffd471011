(** Checked-in failure corpus.

    A corpus entry records everything needed to replay a failure
    exactly: the oracle name and the [(seed, count)] pair the runner
    used when it found it (see {!Oracle.run} — a run is a pure
    function of those).  The shrunk counterexample is stored too, but
    only for human triage; replay re-runs the oracle from the seed.

    Entries marked [known-issue] document divergences that are
    understood but deliberately not yet fixed; {!Runner.replay} treats
    them as expected (exit 0) so the corpus can be kept under
    [dune runtest] without blocking the build. *)

type status = Open | Known_issue of string

type entry = {
  oracle : string;
  seed : int;
  count : int;
  status : status;
  counterexample : string;  (** informational, fully shrunk *)
}

val filename : entry -> string
(** [<oracle>-s<seed>.repro]. *)

val to_string : entry -> string
(** [oracle:]/[seed:]/[count:]/[status:] headers, a [---] separator,
    then the printed counterexample. *)

val of_string : string -> (entry, string) result

val prepare : string -> (unit, string) result
(** Create the directory if missing and check that a file can be
    written in it; [Error] says why not. *)

val write : dir:string -> entry -> string
(** Persist under [dir] (created if missing); returns the path. *)

val read : string -> (entry, string) result
