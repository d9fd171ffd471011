(** Drives the oracle suite, writes failures to the corpus, and
    replays corpus entries. *)

type report = {
  oracle : string;
  seed : int;  (** the derived per-oracle seed actually used *)
  count : int;
  outcome : Oracle.outcome;
  corpus_file : string option;  (** written on failure when enabled *)
}

val derive_seed : int -> string -> int
(** Per-oracle seed from the master seed and the oracle name, so each
    oracle sees an independent deterministic stream.  Reports and
    corpus entries record the derived value; replay never re-derives. *)

val failed : report -> bool

val run :
  ?names:string list ->
  ?corpus_dir:string ->
  seed:int ->
  budget:int ->
  Format.formatter ->
  (report list, string) result
(** Run every oracle (or just [names]) for [budget] trials each,
    printing one status line per oracle and full shrunk
    counterexamples for failures.  With [corpus_dir], each failure is
    persisted as an open corpus entry.  [Error], before any oracle
    runs, on unknown oracle names or a corpus directory that cannot be
    created or written. *)

type replay_result =
  | Fixed  (** no longer reproduces *)
  | Still_failing_known of string  (** reproduces, marked known-issue *)
  | Still_failing  (** reproduces and the entry is open *)

val replay : Format.formatter -> string -> (replay_result, string) result
(** Re-run a corpus entry from its recorded [(oracle, seed, count)].
    [Error] on unreadable files or unknown oracle names. *)
