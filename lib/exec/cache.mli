(** Content-addressed on-disk result cache.

    An entry is addressed by {!Job.key}: the MD5 of the machine's
    canonical KISS2 text, the algorithm, the option fingerprint and
    {!Job.code_version}. Entries are human-readable text files headed
    by an MD5 checksum of the payload, written atomically (temp file +
    rename) under a per-entry advisory file lock
    ([<key>.nova-cache.lock]; writers and {!fsck} exclusive, readers
    shared), so concurrent writers — several domains, or several
    processes sharing a cache directory — can never expose a torn
    entry, and concurrent readers never race a delete.

    {b Trust model}: the cache is untrusted storage. The checksum
    catches torn/truncated bytes structurally; beyond that, every
    lookup re-parses the entry and re-certifies the reconstructed
    artifacts with the independent checker ([lib/check]): injectivity,
    code length, claimed face/covering constraints, cover containment
    and trace equivalence against the machine. An entry that fails its
    checksum or parse, or parses but fails certification (e.g.
    tampered on disk), is counted in [rejected], deleted, and the job
    is recomputed — a corrupt cache can cost time, never correctness.

    {b Fault model}: every I/O failure on the read path (ENOENT racing
    a concurrent reject, EIO, a {!Chaos}-injected fault, a
    recertification crash) converges on the same recovery —
    delete-and-recompute, never an exception out of [find]. Write
    failures (ENOSPC, EIO, injected) retry once, then are swallowed:
    the cache is an accelerator, never a correctness dependency. *)

type t

type stats = { hits : int; misses : int; stores : int; rejected : int }

(** [open_dir dir] creates [dir] if needed and returns a handle.
    Raises [Sys_error] if [dir] exists and is not a directory. *)
val open_dir : string -> t

val dir : t -> string

(** [stats c] is a snapshot of this handle's counters (cross-domain
    safe). The process-wide totals over every handle are the
    [nova_cache_events_total] registry series. *)
val stats : t -> stats

(** [find c task] is the cached, freshly re-certified result of [task],
    or [None] (miss, parse failure, or certification failure). *)
val find : t -> Job.task -> Job.success option

(** [store c task s] persists [s] under [task]'s key, atomically — but
    only if [s] passes independent certification first: the cache holds
    certified results exclusively, so a producer bug is recomputed every
    run instead of being laundered through storage, and any rejection on
    a later [find] means the entry changed on disk. Failures to write
    (read-only directory, disk full) are swallowed: the cache is an
    accelerator, never a correctness dependency. *)
val store : t -> Job.task -> Job.success -> unit

(** [entry_path c task] is the file a [store] would write — exposed for
    the corrupt-cache tests and CI smokes. *)
val entry_path : t -> Job.task -> string

(** [render task s] is the exact entry text a [store] would persist
    (checksum header included) — exposed for the tamper tests, which
    need to re-checksum a modified payload to reach the
    re-certification gate. *)
val render : Job.task -> Job.success -> string

(** What a {!fsck} sweep found: [scanned]/[valid] count [.nova-cache]
    entries, [removed] the entries whose magic or checksum failed
    (torn writes, truncation, tampering), [tmp_removed] leftover
    [.tmp.*] files from writers that died mid-store. Orphaned lock
    files are removed too, silently. *)
type fsck_report = { scanned : int; valid : int; removed : int; tmp_removed : int }

(** [fsck c] sweeps the cache directory for structural integrity:
    every entry's checksum is re-verified (no task context is needed —
    semantic certification still happens on every [find]), broken
    entries and stale temp files are deleted. Each removed entry also
    counts as a rejection in {!stats}. Never raises on I/O errors —
    an unreadable entry is simply removed. *)
val fsck : t -> fsck_report

(** [sweep_own_tmp c] is the shutdown-scoped slice of {!fsck}: removes
    the calling {e process}'s leftover writer temp files (their names
    carry the pid) plus lock files whose entry is gone, and returns how
    many temp files were removed. Entries themselves are never touched,
    and other processes' temp files are left alone — safe to run while
    a second server shares the directory. The [lib/serve] daemon runs
    this on SIGINT/SIGTERM/shutdown so an interrupted daemon never
    leaves the cache needing a manual [nova cache fsck]. *)
val sweep_own_tmp : t -> int
