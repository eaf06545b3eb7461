module Pool = struct
  type task = unit -> unit

  type t = {
    jobs : int;
    mutex : Mutex.t;
    work : Condition.t;  (** workers wait here for tasks (or shutdown) *)
    finished : Condition.t;  (** submitters wait here for their batch *)
    queue : task Queue.t;
    mutable stop : bool;
    mutable workers : unit Domain.t array;
  }

  let rec worker pool =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex (* shutdown *)
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      worker pool
    end

  let create ~jobs =
    let jobs = max 1 (min jobs 64) in
    let pool =
      {
        jobs;
        mutex = Mutex.create ();
        work = Condition.create ();
        finished = Condition.create ();
        queue = Queue.create ();
        stop = false;
        workers = [||];
      }
    in
    (* [jobs] lanes in all: the submitting domain is the last one.  A
       worker for every lane would run one domain more than asked for,
       and with [jobs] sized to the cores every stop-the-world minor
       collection then waits for whichever domain the OS descheduled. *)
    if jobs > 1 then
      pool.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
    pool

  let jobs t = t.jobs

  (* Tasks never raise: each writes an Ok/Error slot, and the submitter
     re-raises the lowest-index Error once the batch has settled, so
     failure behaviour does not depend on scheduling.

     Each batch carries its own [remaining] counter, so several
     submitters — e.g. the serve daemon's concurrent tune requests —
     can feed one pool at once: a submitter wakes as soon as *its*
     tasks are done, while the workers interleave everyone's tasks. *)
  let run t n f =
    if n <= 0 then [||]
    else if t.jobs <= 1 || n = 1 then begin
      let results = Array.make n (f 0) in
      for i = 1 to n - 1 do
        results.(i) <- f i
      done;
      results
    end
    else begin
      let slots = Array.make n None in
      let remaining = ref n in
      let task i () =
        let r = try Ok (f i) with e -> Error e in
        Mutex.lock t.mutex;
        slots.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.add (task i) t.queue
      done;
      Condition.broadcast t.work;
      (* The submitter helps while its batch is outstanding, instead of
         parking: it pops and runs queued tasks — its own or another
         submitter's — and only waits when the queue is drained.  The
         submitting domain is the pool's last lane, and concurrent
         tunes' probe batches merge into one shared work stream.
         Results are written to input-indexed slots, so helping never
         affects outputs. *)
      while !remaining > 0 do
        if not (Queue.is_empty t.queue) then begin
          let task = Queue.pop t.queue in
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex
        end
        else Condition.wait t.finished t.mutex
      done;
      Mutex.unlock t.mutex;
      for i = 0 to n - 1 do
        match slots.(i) with Some (Error e) -> raise e | _ -> ()
      done;
      Array.init n (fun i ->
          match slots.(i) with Some (Ok v) -> v | _ -> assert false)
    end

  let map t f xs =
    let arr = Array.of_list xs in
    Array.to_list (run t (Array.length arr) (fun i -> f arr.(i)))

  let shutdown t =
    if t.workers <> [||] then begin
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      Array.iter Domain.join t.workers;
      t.workers <- [||]
    end

  let with_pool ~jobs f =
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end
