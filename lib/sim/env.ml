type array_info = { addr : int; len : int; fsize : Instr.fsize }

type binding =
  | Int_arg of int
  | Fp_arg of Instr.fsize * float
  | Array_arg of array_info

type t = {
  memory : Bytes.t;
  stack : int;
  mutable cursor : int;
  mutable array_count : int;
  table : (string, binding) Hashtbl.t;
  mutable released : bool;
}

let stack_bytes = 4096

(* Pool of zeroed backing buffers, keyed and weighed by byte length.
   Building an environment used to allocate (and fault in) a fresh
   multi-hundred-KB Bytes.t per measurement; recycling them through a
   pool turns that into a memset.  Invariant: every pooled buffer is
   all-zero — [release] scrubs the whole buffer, not just [0, cursor),
   because the simulator only bounds-checks accesses against the buffer
   length, so a stray (kernel-authored) access past the allocation
   cursor must read the same bytes a fresh buffer holds.  The limit
   bounds the bytes held across all sizes, far above any measured
   peak (DESIGN.md §15, "Pools"). *)
let max_pooled_bytes = 32 * 1024 * 1024

let buffers : (int, Bytes.t) Ifko_par.Freelist.t =
  Ifko_par.Freelist.create ~limit:max_pooled_bytes ~weight:Fun.id ()

let create ?(mem_bytes = 4 * 1024 * 1024) () =
  {
    memory =
      (match Ifko_par.Freelist.take buffers mem_bytes with
      | Some b -> b
      | None -> Bytes.make mem_bytes '\000');
    stack = 64;
    cursor = 64 + stack_bytes;
    array_count = 0;
    table = Hashtbl.create 8;
    released = false;
  }

(* Releasing twice would put one buffer in the pool twice, and two live
   environments would then share memory: fail closed instead. *)
let release t =
  if t.released then invalid_arg "Env.release: environment already released";
  t.released <- true;
  let len = Bytes.length t.memory in
  Bytes.fill t.memory 0 len '\000';
  Hashtbl.reset t.table;
  Ifko_par.Freelist.put buffers len t.memory

let mem t = t.memory
let stack_base t = t.stack
let bind_int t name v = Hashtbl.replace t.table name (Int_arg v)
let bind_fp t name fsize v = Hashtbl.replace t.table name (Fp_arg (fsize, v))

let round_up v align = (v + align - 1) / align * align

let alloc_array t name fsize len =
  (* page-align, then stagger successive arrays by three cache lines so
     they never share L1 sets element-for-element *)
  let base = round_up t.cursor 4096 + (t.array_count * 192) in
  let bytes = len * Instr.fsize_bytes fsize in
  if base + bytes + 64 > Bytes.length t.memory then
    invalid_arg "Env.alloc_array: out of simulated memory";
  t.cursor <- base + bytes;
  t.array_count <- t.array_count + 1;
  Hashtbl.replace t.table name (Array_arg { addr = base; len; fsize })

let binding t name = Hashtbl.find t.table name
let bindings t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []

let array_exn t name =
  if t.released then invalid_arg "Env: environment already released";
  match Hashtbl.find_opt t.table name with
  | Some (Array_arg a) -> a
  | _ -> invalid_arg (Printf.sprintf "Env: %S is not a bound array" name)

let set_elem t name i v =
  let a = array_exn t name in
  if i < 0 || i >= a.len then invalid_arg "Env.set_elem: index out of bounds";
  match a.fsize with
  | Instr.D -> Bytes.set_int64_le t.memory (a.addr + (8 * i)) (Int64.bits_of_float v)
  | Instr.S -> Bytes.set_int32_le t.memory (a.addr + (4 * i)) (Int32.bits_of_float v)

let get_elem t name i =
  let a = array_exn t name in
  if i < 0 || i >= a.len then invalid_arg "Env.get_elem: index out of bounds";
  match a.fsize with
  | Instr.D -> Int64.float_of_bits (Bytes.get_int64_le t.memory (a.addr + (8 * i)))
  | Instr.S -> Int32.float_of_bits (Bytes.get_int32_le t.memory (a.addr + (4 * i)))

(* One binding lookup for the whole array, then straight-line stores —
   timer paths rebuild environments constantly, so the per-element
   [set_elem] lookup was pure overhead.  Writes the exact bytes
   [set_elem] writes. *)
let fill t name f =
  let a = array_exn t name in
  match a.fsize with
  | Instr.D ->
    for i = 0 to a.len - 1 do
      Bytes.set_int64_le t.memory (a.addr + (8 * i)) (Int64.bits_of_float (f i))
    done
  | Instr.S ->
    for i = 0 to a.len - 1 do
      Bytes.set_int32_le t.memory (a.addr + (4 * i)) (Int32.bits_of_float (f i))
    done

let to_array t name =
  let a = array_exn t name in
  Array.init a.len (get_elem t name)

(* Phase controls for the sampled timer: one env built for the whole
   warm-up + detailed-window range serves both phases.  [set_counts]
   rebinds every integer argument — in every timer spec the integer
   arguments are exactly the element counts (BLAS binds "N"; generic
   kernels bind each int parameter to the problem size) — and
   [advance] slides every array forward past the elements the warm-up
   consumed, so the window run continues the same address streams. *)
let set_counts t n =
  Hashtbl.filter_map_inplace
    (fun _ b -> match b with Int_arg _ -> Some (Int_arg n) | b -> Some b)
    t.table

let advance t ~elems =
  Hashtbl.filter_map_inplace
    (fun name b ->
      match b with
      | Array_arg a ->
        if elems < 0 || elems >= a.len then
          invalid_arg
            (Printf.sprintf "Env.advance: %d elements exceeds array %S (%d)" elems
               name a.len);
        Some
          (Array_arg
             {
               addr = a.addr + (elems * Instr.fsize_bytes a.fsize);
               len = a.len - elems;
               fsize = a.fsize;
             })
      | b -> Some b)
    t.table

(* Pristine-image masters.  A timer spec's [make_env] draws its fill
   values from a stateful RNG shared across arrays, so re-filling pages
   lazily (or per-array) would reorder the draws and change the data.
   Instead the timers build the spec's env once, [capture] its pristine
   image — every byte written so far lives in [0, cursor) — and
   [materialize] later copies that image into a pooled zeroed buffer of
   the same size.  Bytes beyond the cursor are zero in both the fresh
   and the materialized env, so the two are indistinguishable to the
   simulator, at the cost of one blit instead of re-running the fills
   (and, for BLAS, re-consuming the vector memo). *)
type master = {
  m_image : Bytes.t;
  m_bindings : (string * binding) list;
  m_cursor : int;
  m_array_count : int;
  m_mem_bytes : int;
}

let capture t =
  {
    m_image = Bytes.sub t.memory 0 t.cursor;
    m_bindings = bindings t;
    m_cursor = t.cursor;
    m_array_count = t.array_count;
    m_mem_bytes = Bytes.length t.memory;
  }

let master_bindings m = m.m_bindings

let materialize m =
  let t = create ~mem_bytes:m.m_mem_bytes () in
  Bytes.blit m.m_image 0 t.memory 0 (Bytes.length m.m_image);
  List.iter (fun (k, v) -> Hashtbl.replace t.table k v) m.m_bindings;
  t.cursor <- m.m_cursor;
  t.array_count <- m.m_array_count;
  t

let iter_array_lines t ~line f =
  Hashtbl.iter
    (fun _ b ->
      match b with
      | Array_arg a ->
        let first = a.addr / line and last = (a.addr + (a.len * Instr.fsize_bytes a.fsize) - 1) / line in
        for l = first to last do
          f (l * line)
        done
      | Int_arg _ | Fp_arg _ -> ())
    t.table
