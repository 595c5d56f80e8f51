(** A small credit scheduler in the style of Xen's: each domain holds
    credits, consuming them as it is picked to run; when every runnable
    domain is out of credits, all credits refill. Used to order guest
    work (e.g. which guest's queued packets are delivered first) —
    "when the guest domain is scheduled next, the hypervisor copies the
    packets into guest domain buffers" (§5.3). *)

type t

val create : ?initial_credit:int -> unit -> t

val add : t -> Domain.t -> unit
(** Enter a domain with full credit, in O(1). Adding a domain id that is
    already queued restarts its entry. *)

val remove : t -> Domain.t -> unit
(** Drop a domain from the run queue in O(1) (matched by id; unknown
    domains are ignored). Its remaining credit vanishes with it — a
    destroyed domain must not be picked again. *)

val pick : t -> runnable:('a -> Domain.t -> bool) -> 'a -> Domain.t option
(** [pick t ~runnable env]: the domain with the most credit among those
    [runnable env] accepts (ties broken by lowest id); charges one
    credit, refilling every credit first when all runnable domains are
    out. [None] when nothing is runnable. Passing [env] lets a caller
    use a closed [runnable], so a pass that picks nothing allocates
    nothing. *)

val credit : t -> Domain.t -> int
val slices : t -> Domain.t -> int
(** Times the domain has been picked. *)
