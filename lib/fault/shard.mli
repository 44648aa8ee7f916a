(** Worker-process plumbing for parallel campaigns.

    A parallel campaign re-executes its own binary as worker processes,
    each owning a slice of the deterministic site (or sample)
    enumeration and journaling its verdicts under their global indices
    into its own file ({!journal_path}).  {!Supervisor} builds its chunk
    work-queue on these pieces, and a supervised campaign's parent
    merges the chunk journals into the serial journal's record stream
    with {!load_merged}; [halotis vary --jobs] spawns one worker per
    sample with them.

    This module holds the process plumbing (core-count detection,
    per-worker file naming, worker spawn via [Unix.create_process],
    wait loop, exit-code folding, merged journal loading); the argv a
    worker receives is the caller's business — the CLI reconstructs its
    own campaign flags. *)

val available_cores : unit -> int
(** The number of processor cores available to this process — what
    [faults --jobs 0] resolves to.  Asks [getconf _NPROCESSORS_ONLN]
    first, then [sysctl -n hw.ncpu] (the BSD/macOS spelling), then
    counts [/proc/cpuinfo] processor lines, and returns [1] when no
    source answers.  Never raises. *)

val detect_cores :
  ?getconf:(unit -> string option) ->
  ?sysctl:(unit -> string option) ->
  ?cpuinfo:(unit -> string option) ->
  unit ->
  int
(** {!available_cores} with injectable readers, for testing the
    fallback chain without the host's real core count: [getconf] and
    [sysctl] yield the command's first output line (or [None] on
    failure), [cpuinfo] the whole file's contents.  A reader whose
    output does not parse to a count [>= 1] falls through to the
    next. *)

val parse_core_count : string -> int option
(** Parses one command-output line into a core count: whitespace is
    trimmed, and anything that is not an integer [>= 1] is [None]. *)

val count_cpuinfo_processors : string -> int option
(** Counts [processor] lines in [/proc/cpuinfo]-format contents;
    [None] when there are none (the caller falls through). *)

val journal_path : string -> int -> string
(** [journal_path base k] is ["base.k"] — where worker (or chunk) [k]'s
    journal lives. *)

val stderr_path : string -> int -> string
(** [stderr_path base k] is ["base.k.err"] — where worker [k]'s
    captured stderr lands when the caller passes it to {!spawn}. *)

type worker = {
  wk_index : int;  (** the caller's worker number (chunk id, sample) *)
  wk_pid : int;
}

val spawn : ?stderr_file:string -> argv:string list -> index:int -> unit -> worker
(** Forks worker [index] by re-executing [Sys.executable_name] with
    [argv] (complete, including the program name at its head); the
    child inherits stdin/stdout, and stderr too unless [stderr_file]
    redirects it into a fresh capture file (created/truncated). *)

val stderr_tail : ?lines:int -> string -> string list
(** The last [lines] (default 5) non-blank lines of a worker's stderr
    capture file; [[]] when the file is missing or empty.  Replayed
    into the supervisor's diagnostics after a worker dies. *)

val wait_all : worker list -> (worker * Unix.process_status) list
(** Blocks until every worker has exited, in worker order.  Never
    raises on a worker that died to a signal — the status records it. *)

val status_exit_code : Unix.process_status -> int
(** [WEXITED n] is [n]; a signalled or stopped worker is a hard error
    ([1]). *)

val status_to_string : Unix.process_status -> string
(** ["exit 0"], ["signal -9"], ... for progress messages. *)

val exit_code : (worker * Unix.process_status) list -> int
(** The parent's verdict over all workers
    ({!Halotis_guard.Stop.worst_exit_code} of the per-worker codes). *)

val load_merged :
  base:string -> jobs:int -> Journal.header * (int * Journal.entry) list
(** Loads every existing shard journal [base.0 .. base.(jobs-1)] and
    {!Journal.merge}s them.  Shard files that do not exist (a worker
    died before writing its header) are skipped — the gap surfaces in
    {!Journal.contiguous}.
    @raise Halotis_guard.Diag.Fail ([journal-merge]) when no shard
    journal exists at all, or on merge conflicts. *)
