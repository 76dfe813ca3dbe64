(* The calibration kernel: a fixed amount of CPU work, timed between the
   benchmark's measured rounds so every timing can be divided by the
   speed the host had at that moment.

   The mix mirrors what the workloads spend their time on: rows of boxed
   values allocated and dropped young, a hash build and probe over string
   keys (a hash join in miniature), an in-place sort of an integer array,
   and a sequential scan of a float array larger than the caches.  What it keeps between runs is allocated once in [create], so
   the kernel does not depend on how large the workload's heap is.

   This library is built with no dependencies (see the dune stanza), so
   the kernel cannot call any code of the system under test: a change to
   the program cannot move the yardstick. *)

type t = {
  keys : string array;
  source : int array;   (* sort input, copied into [scratch] each run *)
  scratch : int array;
  column : float array; (* scanned sequentially *)
}

let key_count = 1 lsl 12
let probes = 1 lsl 14
let sort_len = 1 lsl 13
let column_len = 1 lsl 20

let create () =
  let st = Random.State.make [| 0x5eed |] in
  {
    keys = Array.init key_count (fun i -> Printf.sprintf "key-%d-%d" i (Random.State.bits st));
    source = Array.init sort_len (fun _ -> Random.State.bits st);
    scratch = Array.make sort_len 0;
    column = Array.init column_len (fun i -> float_of_int (i land 1023));
  }

(* Build a hash table of small boxed rows, then probe it. *)
let hash_join t =
  let table = Hashtbl.create key_count in
  Array.iteri (fun i k -> Hashtbl.replace table k [| Some (float_of_int i); None |]) t.keys;
  let acc = ref 0.0 in
  for i = 0 to probes - 1 do
    match Hashtbl.find_opt table t.keys.((i * 7919) land (key_count - 1)) with
    | Some [| Some f; _ |] -> acc := !acc +. f
    | _ -> ()
  done;
  int_of_float !acc

let sort t =
  Array.blit t.source 0 t.scratch 0 sort_len;
  Array.sort Int.compare t.scratch;
  t.scratch.(sort_len / 2)

let scan t =
  let acc = ref 0.0 in
  for i = 0 to column_len - 1 do
    let v = Array.unsafe_get t.column i in
    if v > 511.0 then acc := !acc +. v
  done;
  int_of_float !acc

(* One kernel run; the result is a checksum so no part can be elided. *)
let run t = hash_join t + sort t + scan t
