(** Lowering of checked HIL kernels to LIL.

    The generated code is deliberately naive scalar code — one virtual
    register per HIL variable, loads/stores exactly where the source
    has them — because all optimization is the transformation
    pipeline's job (the paper performs {e all} tuning transformations
    in the backend).  The [OPTLOOP], if present, is emitted in the
    canonical count-down shape described in {!Loopnest}. *)

(** A pointer parameter of the kernel, as seen by analyses, the
    prefetch search and the timers. *)
type array_param = {
  a_name : string;
  a_reg : Reg.t;
  a_elem : Instr.fsize;
  a_output : bool;  (** the kernel stores through it (WNT candidate) *)
  a_noprefetch : bool;  (** user mark-up: exclude from prefetch search *)
  a_mayalias : bool;
      (** user mark-up: may overlap other arrays; dependence analysis
          must fail closed on every pair involving this array *)
}

(** Result of lowering: the LIL function plus the metadata every later
    stage consumes. *)
type compiled = {
  func : Cfg.func;
  loopnest : Loopnest.t option;  (** the tunable loop, if one was marked *)
  arrays : array_param list;
  ret_ty : Ifko_hil.Ast.ty option;
  source : Ifko_hil.Ast.kernel;  (** the kernel this was lowered from *)
}

exception Error of string

val lower : Ifko_hil.Typecheck.checked -> compiled
(** Lower a checked kernel.  @raise Error on constructs the backend
    does not support (e.g. integer division). *)

val of_source : string -> compiled
(** The front end: parse, typecheck and lower HIL source text.  Raises
    whatever the stage that rejects the kernel raises. *)
