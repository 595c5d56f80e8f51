(** The MISA instruction interpreter with cycle accounting.

    Executes assembled programs registered in a {!Code_registry.t} against
    the architectural {!State.t}. Costs are charged per instruction and per
    memory access (TLB and cache models included), so the measured
    native-vs-rewritten driver slowdown is an output of execution, not an
    assumption. Two engines — basic blocks and compiled {!Superblock}s —
    share one instruction semantics ({!Semantics}) and produce the
    simulated (cycles, steps) of executing one instruction at a time,
    bit for bit; the full pipeline is documented in docs/INTERPRETER.md. *)

exception Fault of string
(** Execution fault: unresolved target, call into unmapped code, etc.
    (The same exception as {!Semantics.Fault}.) *)

exception Timeout of int
(** Raised when [max_steps] is exceeded — the resource-hoarding guard the
    paper delegates to VINO-style timeouts (§4.5.2). (The same exception
    as {!Semantics.Timeout}.) *)

type t

val create :
  ?fault:Td_fault.Engine.state ->
  State.t -> Code_registry.t -> Native.t -> t
(** [fault] is the engine the {!Td_fault.Interp_bitflip} site draws
    from; omitted, nothing is injected. *)

val state : t -> State.t
val registry : t -> Code_registry.t

val set_compile_threshold : t -> int -> unit
(** Dispatches of a block entry before it is promoted to compiled form
    (default 8; clamped to at least 1). [max_int] never promotes, which
    leaves every entry on the basic-block engine. *)

val observe_blocks : t -> (State.t -> Td_misa.Program.t -> int -> int) -> unit
(** [observe_blocks t f] runs [f st prog idx] before every block the
    engine executes, where instruction [idx] of [prog] starts the block
    and [st] is its pre-execution state. [f] returns the index of the
    last instruction to run in this block (at least [idx]); the block
    ends there or at its natural end, whichever comes first, so
    returning [idx] gives a one-instruction view. An observer composes
    with any already attached (the earliest stop wins) and keeps every
    later {!call} on the block engine; to count inline stlb hits,
    register probe sites with {!set_probes} instead. *)

val set_probes : t -> Superblock.probes -> unit
(** Replace the probe-site table (see {!Superblock.probe_site}). Every
    engine calls a site's callback before the xor executes, with the
    register's pre-xor value, exactly once per executed site; compiled
    superblocks resolve the sites when they are built. Registering sites
    does not leave the fast path. Flushes the block and compiled caches,
    so no closure built against the old table survives. *)

val probes : t -> Superblock.probes
(** The table installed by {!set_probes} (initially empty). *)

val ret_sentinel : int
(** Pseudo return address marking the bottom of a simulated call; popping
    it ends {!call}. *)

val call : ?max_steps:int -> t -> entry:int -> args:int list -> int
(** [call t ~entry ~args] pushes [args] (cdecl, right-to-left), invokes the
    routine at code address [entry] and runs to completion; returns [EAX].
    [ESP] must already point to a valid stack. Default [max_steps] is
    1_000_000. The budget is charged per executed instruction and per
    [rep] string element, so a corrupted huge ECX times out rather than
    spinning forever. Execution proceeds a compiled superblock — or, for
    cold or bailed-out entries, a basic block — at a time. With an
    observer attached, or a fault engine whose [interp_bitflip] rate is
    above zero and not suspended, every block runs on the block engine,
    which draws the bitflip once per instruction. Probe sites fire on
    every path. Simulated cycles, steps and metrics are identical on
    every path, only host wall-clock differs. *)

val call1 : t -> entry:int -> int -> int
(** [call1 t ~entry a0] is [call t ~entry ~args:[ a0 ]] without the
    list: it allocates nothing on the host. *)

val call2 : t -> entry:int -> int -> int -> int
(** [call2 t ~entry a0 a1] is [call t ~entry ~args:[ a0; a1 ]] without
    the list. *)

(* engine introspection (the [interp] bench) *)

val block_hits : t -> int
val block_misses : t -> int

val compiled_blocks : t -> int
(** Superblocks compiled (promotions). *)

val compiled_hits : t -> int
(** Dispatches served by running a compiled superblock. *)

val compiled_bailouts : t -> int
(** Dispatches that found a compiled superblock but fell back to the
    block engine (pair slot set on entry, or not enough fuel left for a
    worst-case pass). *)

val stlb_elided : t -> int
(** Accesses in compiled superblocks served by their site's translation
    memo: no page-table walk or frame lookup, while the TLB and cache
    models still observe the access (see {!Superblock}). *)

val page_walks : t -> int
(** Accesses in compiled superblocks whose site's memo missed: a
    page-table walk, and a refill on a frame-backed page. Each memory
    operand walks on its first access and again only after its page is
    remapped, unmapped, or any frame is freed. *)

val publish_metrics : t -> unit
(** Export the engine counters as [interp.block_hits] /
    [interp.block_misses] /
    [interp.compiled_blocks] / [interp.compiled_hits] /
    [interp.compiled_bailouts] / [interp.stlb_elided] /
    [interp.page_walks] gauges. Called
    explicitly by the interp benchmark — never during normal runs, so
    the registry snapshot embedded in every Measure result stays
    bit-identical with pre-engine exports. *)
