(** Register sets as word bit sets indexed by {!Reg.hash}.

    [Reg.hash] is dense for one function's registers — [id lsl 2], the
    class bit and the physical bit — so a set over a function's
    registers is an [int] array of [width] words, with no numbering
    table to build.  Sets are mutable and of fixed width: every set
    combined with another must have been created with the same width
    ({!width_for} of the same function). *)

type t = int array

(* 32 bits a word keeps the index arithmetic to shifts. *)
let bits = 32

(* Registers [Reg.hash] can name below [4 * n] ids, physical ones
   included (their ids are at most 7). *)
let words_for_ids n = ((4 * max n 8) + bits - 1) / bits

(** Words a set over [f]'s registers needs, assuming every register in
    its blocks came from [f.reg_ids] ({!add} raises when one did not);
    the parameters are counted whatever their ids. *)
let width_for (f : Cfg.func) =
  words_for_ids
    (List.fold_left
       (fun m (_, r) -> max m (r.Reg.id + 1))
       (Ifko_util.Ids.peek f.Cfg.reg_ids) f.Cfg.params)

(** Words a set over every register [f] mentions needs, whatever their
    ids: for functions built by hand, whose ids bypass [f.reg_ids]. *)
let exact_width_for (f : Cfg.func) =
  let top = Reg.Set.fold (fun r m -> max m r.Reg.id) (Cfg.all_regs f) 0 in
  max (width_for f) (words_for_ids (top + 1))

let create width : t = Array.make width 0

let mem (s : t) r =
  let i = Reg.hash r in
  let w = i lsr 5 in
  w < Array.length s && s.(w) land (1 lsl (i land 31)) <> 0

(** [add s r] raises [Invalid_argument] when [s] is too narrow for
    [r]. *)
let add (s : t) r =
  let i = Reg.hash r in
  let w = i lsr 5 in
  s.(w) <- s.(w) lor (1 lsl (i land 31))

let remove (s : t) r =
  let i = Reg.hash r in
  let w = i lsr 5 in
  if w < Array.length s then s.(w) <- s.(w) land lnot (1 lsl (i land 31))

let clear (s : t) = Array.fill s 0 (Array.length s) 0

let equal (a : t) (b : t) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let is_empty (s : t) = Array.for_all (fun w -> w = 0) s

(** [union_into dst src] adds [src]'s members to [dst]. *)
let union_into (dst : t) (src : t) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) lor src.(i)
  done

(** [diff_into dst src] removes [src]'s members from [dst]. *)
let diff_into (dst : t) (src : t) =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) land lnot src.(i)
  done

(* The register a bit index names: [Reg.hash] inverted. *)
let reg_of_index i =
  { Reg.id = i lsr 2; cls = (if i land 2 <> 0 then Reg.Xmm else Reg.Gpr); phys = i land 1 = 1 }

let iter g (s : t) =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits - 1 do
          if word land (1 lsl b) <> 0 then g (reg_of_index ((w * bits) + b))
        done)
    s

let to_set s =
  let acc = ref Reg.Set.empty in
  iter (fun r -> acc := Reg.Set.add r !acc) s;
  !acc
