(* Tests for the pinned-memory substrate: slab pools, refcounts,
   use-after-free detection, recover_ptr, arenas. *)

let make_pool ?(classes = [ (64, 8); (256, 8); (1024, 4) ]) () =
  let space = Mem.Addr_space.create () in
  let pool = Mem.Pinned.Pool.create space ~name:"test" ~classes in
  (space, pool)

let test_alloc_and_fill () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc pool ~len:100 in
  Alcotest.(check int) "len" 100 (Mem.Pinned.Buf.len buf);
  Alcotest.(check int) "slot size rounds up" 256 (Mem.Pinned.Buf.slot_size buf);
  Alcotest.(check int) "refcount" 1 (Mem.Pinned.Buf.refcount buf);
  Mem.Pinned.Buf.fill buf "hello";
  let v = Mem.Pinned.Buf.view buf in
  Alcotest.(check string) "contents" "hello"
    (String.sub (Mem.View.to_string v) 0 5)

let test_alloc_exhaustion () =
  let _space, pool = make_pool ~classes:[ (64, 2) ] () in
  let a = Mem.Pinned.Buf.alloc pool ~len:64 in
  let _b = Mem.Pinned.Buf.alloc pool ~len:64 in
  (match Mem.Pinned.Buf.alloc pool ~len:64 with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Mem.Pinned.Out_of_memory _ -> ());
  (* Freeing returns capacity. *)
  Mem.Pinned.Buf.decr_ref a;
  let c = Mem.Pinned.Buf.alloc pool ~len:64 in
  Alcotest.(check int) "recycled" 1 (Mem.Pinned.Buf.refcount c)

let test_no_class_large_enough () =
  let _space, pool = make_pool () in
  match Mem.Pinned.Buf.alloc pool ~len:4096 with
  | _ -> Alcotest.fail "expected Out_of_memory"
  | exception Mem.Pinned.Out_of_memory _ -> ()

let test_refcount_lifecycle () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc pool ~len:64 in
  Mem.Pinned.Buf.incr_ref buf;
  Alcotest.(check int) "two refs" 2 (Mem.Pinned.Buf.refcount buf);
  Mem.Pinned.Buf.decr_ref buf;
  Alcotest.(check bool) "still live" true (Mem.Pinned.Buf.is_live buf);
  Mem.Pinned.Buf.decr_ref buf;
  Alcotest.(check bool) "dead" false (Mem.Pinned.Buf.is_live buf)

(* The exception now carries a payload (buffer identity + RefSan history),
   so match on the constructor rather than a literal exception value. *)
let expect_uaf label f =
  match f () with
  | _ -> Alcotest.fail (label ^ ": expected Use_after_free")
  | exception Mem.Pinned.Use_after_free _ -> ()

let test_use_after_free_raises () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc pool ~len:64 in
  Mem.Pinned.Buf.decr_ref buf;
  expect_uaf "view after free" (fun () -> ignore (Mem.Pinned.Buf.view buf));
  expect_uaf "incr after free" (fun () -> Mem.Pinned.Buf.incr_ref buf)

let test_stale_generation_detected () =
  let _space, pool = make_pool ~classes:[ (64, 1) ] () in
  let old = Mem.Pinned.Buf.alloc pool ~len:64 in
  Mem.Pinned.Buf.decr_ref old;
  (* Same slot is recycled; the stale handle must not alias it. *)
  let fresh = Mem.Pinned.Buf.alloc pool ~len:64 in
  Alcotest.(check bool) "fresh live" true (Mem.Pinned.Buf.is_live fresh);
  expect_uaf "stale handle" (fun () -> ignore (Mem.Pinned.Buf.view old))

let test_sub_shares_refcount () =
  let _space, pool = make_pool () in
  let buf = Mem.Pinned.Buf.alloc pool ~len:256 in
  Mem.Pinned.Buf.fill buf (String.make 256 'x');
  let sub = Mem.Pinned.Buf.sub buf ~off:100 ~len:50 in
  Alcotest.(check int) "sub len" 50 (Mem.Pinned.Buf.len sub);
  Alcotest.(check int) "sub addr" (Mem.Pinned.Buf.addr buf + 100)
    (Mem.Pinned.Buf.addr sub);
  Alcotest.(check int) "shared count" 1 (Mem.Pinned.Buf.refcount sub);
  Mem.Pinned.Buf.decr_ref sub;
  expect_uaf "parent dead too" (fun () -> ignore (Mem.Pinned.Buf.view buf))

let test_recover_ptr_middle () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc pool ~len:256 in
  Mem.Pinned.Buf.fill buf (String.init 256 (fun i -> Char.chr (i land 0xff)));
  let addr = Mem.Pinned.Buf.addr buf + 10 in
  (match Mem.Registry.recover_ptr registry ~addr ~len:20 with
  | None -> Alcotest.fail "expected recovery"
  | Some r ->
      Alcotest.(check int) "recovered len" 20 (Mem.Pinned.Buf.len r);
      Alcotest.(check int) "refcount bumped" 2 (Mem.Pinned.Buf.refcount buf);
      let v = Mem.Pinned.Buf.view r in
      Alcotest.(check string) "contents align"
        (String.init 20 (fun i -> Char.chr ((i + 10) land 0xff)))
        (Mem.View.to_string v);
      Mem.Pinned.Buf.decr_ref r);
  Alcotest.(check int) "ref restored" 1 (Mem.Pinned.Buf.refcount buf)

let test_recover_ptr_unpinned_fails () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  (* Ordinary heap memory: an address no pinned pool covers (§2.3). *)
  let heap = Mem.View.of_string space "not pinned" in
  Alcotest.(check bool) "unpinned rejected" true
    (Mem.Registry.recover_ptr registry ~addr:heap.Mem.View.addr ~len:5 = None)

let test_recover_ptr_freed_slot_fails () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc pool ~len:64 in
  let addr = Mem.Pinned.Buf.addr buf in
  Mem.Pinned.Buf.decr_ref buf;
  Alcotest.(check bool) "freed slot not recoverable" true
    (Mem.Registry.recover_ptr registry ~addr ~len:8 = None)

let test_recover_ptr_straddle_fails () =
  let space, pool = make_pool () in
  let registry = Mem.Registry.create space in
  Mem.Registry.register registry pool;
  let buf = Mem.Pinned.Buf.alloc pool ~len:64 in
  (* A range that runs off the end of the slot cannot be recovered. *)
  Alcotest.(check bool) "straddle rejected" true
    (Mem.Registry.recover_ptr registry
       ~addr:(Mem.Pinned.Buf.addr buf + 32)
       ~len:64
    = None)

(* A class whose host bytes span several lazily created chunks: every slot
   reads back its own bytes through each accessor, and simulated addresses
   keep the flat [base + slot * size] layout. *)
let test_chunk_boundaries () =
  let check_class ~size ~capacity =
    let space, pool = make_pool ~classes:[ (size, capacity) ] () in
    let registry = Mem.Registry.create space in
    Mem.Registry.register registry pool;
    (* A fresh pool hands out slots 0, 1, 2, ... in order. *)
    let bufs = Array.init capacity (fun _ -> Mem.Pinned.Buf.alloc pool ~len:size) in
    let contents i = String.init size (fun j -> Char.chr (((i * 37) + j) land 0xff)) in
    let probe = [ 0; 1; capacity / 2; capacity - 2; capacity - 1 ] in
    List.iter (fun i -> Mem.Pinned.Buf.fill bufs.(i) (contents i)) probe;
    List.iter
      (fun i ->
        let b = bufs.(i) and want = contents i in
        let label what = Printf.sprintf "%d B slot %d: %s" size i what in
        Alcotest.(check int) (label "addr")
          (Mem.Pinned.Pool.base pool + (i * size))
          (Mem.Pinned.Buf.addr b);
        Alcotest.(check string) (label "view") want
          (Mem.View.to_string (Mem.Pinned.Buf.view b));
        Alcotest.(check string) (label "sub_view") (String.sub want 5 9)
          (Mem.View.to_string (Mem.Pinned.Buf.sub_view b ~off:5 ~len:9));
        let dst = Bytes.create (size + 3) in
        Mem.Pinned.Buf.blit_to b ~dst ~dst_off:3;
        Alcotest.(check string) (label "blit_to") want (Bytes.sub_string dst 3 size);
        Alcotest.(check string) (label "backing") want
          (Bytes.sub_string (Mem.Pinned.Buf.backing b)
             (Mem.Pinned.Buf.backing_off b) size);
        match
          Mem.Registry.recover_ptr registry
            ~addr:(Mem.Pinned.Buf.addr b + size - 4)
            ~len:4
        with
        | None -> Alcotest.fail (label "recover")
        | Some r ->
            Alcotest.(check string) (label "recover") (String.sub want (size - 4) 4)
              (Mem.View.to_string (Mem.Pinned.Buf.view r));
            Mem.Pinned.Buf.decr_ref r)
      probe
  in
  (* 64 KiB slots: four per chunk, three chunks. *)
  check_class ~size:65536 ~capacity:12;
  (* 512 KiB slots: larger than a chunk, one chunk each. *)
  check_class ~size:524288 ~capacity:3

(* Pool host bytes follow use: an endpoint's pools reserve their simulated
   ranges up front but allocate no backing until a slot is popped. *)
let test_endpoint_heap_growth () =
  let engine = Sim.Engine.create () in
  let fabric = Net.Fabric.create engine in
  let registry = Mem.Registry.create (Mem.Addr_space.create ()) in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let ep = Net.Endpoint.create fabric registry ~id:1 in
  let grown_mb =
    float_of_int (((Gc.quick_stat ()).Gc.heap_words - before) * (Sys.word_size / 8))
    /. 1048576.
  in
  ignore (Sys.opaque_identity ep);
  if grown_mb >= 8.0 then
    Alcotest.failf "Endpoint.create grew the heap by %.1f MB (bound 8 MB)" grown_mb

let test_arena_copy_and_reset () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:1024 in
  let src = Mem.View.of_string space "arena data" in
  let copy = Mem.Arena.copy_in arena src in
  Alcotest.(check string) "copied" "arena data" (Mem.View.to_string copy);
  (* Allocations reserve their size class (10 B rounds up to the 16 B
     class) so the chunk can be recycled. *)
  Alcotest.(check int) "used" 16 (Mem.Arena.used arena);
  Mem.Arena.reset arena;
  Alcotest.(check int) "reset" 0 (Mem.Arena.used arena)

let test_arena_exhaustion () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:16 in
  let src = Mem.View.of_string space (String.make 17 'x') in
  match Mem.Arena.copy_in arena src with
  | _ -> Alcotest.fail "expected arena overflow"
  | exception Mem.Pinned.Out_of_memory _ -> ()

let test_view_sub_and_blit () =
  let space = Mem.Addr_space.create () in
  let v = Mem.View.of_string space "hello world" in
  let sub = Mem.View.sub v ~off:6 ~len:5 in
  Alcotest.(check string) "sub" "world" (Mem.View.to_string sub);
  Alcotest.(check int) "sub addr" (v.Mem.View.addr + 6) sub.Mem.View.addr;
  let dst = Bytes.make 5 '_' in
  Mem.View.blit sub ~dst ~dst_off:0;
  Alcotest.(check string) "blit" "world" (Bytes.to_string dst)

let test_addr_space_disjoint () =
  let space = Mem.Addr_space.create () in
  let a = Mem.Addr_space.reserve space ~bytes:100 in
  let b = Mem.Addr_space.reserve space ~bytes:100 in
  Alcotest.(check bool) "disjoint" true (b >= a + 100);
  Alcotest.(check int) "aligned" 0 (a mod 64);
  Alcotest.(check int) "aligned b" 0 (b mod 64)

let qcheck_alloc_free_capacity =
  (* Property: any interleaving of allocs and frees never loses capacity:
     after releasing everything, the pool serves its full class capacity. *)
  QCheck.Test.make ~name:"pool conserves capacity" ~count:100
    QCheck.(list (int_bound 9))
    (fun ops ->
      let _space, pool = make_pool ~classes:[ (64, 4) ] () in
      let live = ref [] in
      List.iter
        (fun op ->
          if op < 5 then begin
            match Mem.Pinned.Buf.alloc pool ~len:64 with
            | buf -> live := buf :: !live
            | exception Mem.Pinned.Out_of_memory _ -> ()
          end
          else
            match !live with
            | [] -> ()
            | buf :: rest ->
                Mem.Pinned.Buf.decr_ref buf;
                live := rest)
        ops;
      List.iter Mem.Pinned.Buf.decr_ref !live;
      Mem.Pinned.Pool.live pool = 0
      && Mem.Pinned.Pool.available_for pool ~len:64 = 4)

let qcheck_recover_roundtrip =
  QCheck.Test.make ~name:"recover_ptr window matches" ~count:100
    QCheck.(pair (int_bound 200) (int_bound 55))
    (fun (off, len) ->
      let len = len + 1 in
      QCheck.assume (off + len <= 256);
      let space, pool = make_pool () in
      let registry = Mem.Registry.create space in
      Mem.Registry.register registry pool;
      let buf = Mem.Pinned.Buf.alloc pool ~len:256 in
      Mem.Pinned.Buf.fill buf
        (String.init 256 (fun i -> Char.chr (i land 0xff)));
      match
        Mem.Registry.recover_ptr registry
          ~addr:(Mem.Pinned.Buf.addr buf + off)
          ~len
      with
      | None -> false
      | Some r ->
          let got = Mem.View.to_string (Mem.Pinned.Buf.view r) in
          let want = String.init len (fun i -> Char.chr ((i + off) land 0xff)) in
          String.equal got want)

let test_arena_recycle_reuses_and_counts () =
  let space = Mem.Addr_space.create () in
  let arena = Mem.Arena.create space ~capacity:1024 in
  let src = Mem.View.of_string space (String.make 100 'r') in
  let first = Mem.Arena.copy_in arena src in
  Mem.Arena.recycle arena first;
  Alcotest.(check int) "parked after recycle" 1 (Mem.Arena.parked arena);
  let second = Mem.Arena.copy_in arena src in
  (* Same class (128 B), so the recycled chunk is reused in place. *)
  Alcotest.(check int) "chunk reused" first.Mem.View.addr
    second.Mem.View.addr;
  Alcotest.(check int) "recycle hit counted" 1 (Mem.Arena.recycle_hits arena);
  Alcotest.(check int) "bump pointer did not advance" 128
    (Mem.Arena.used arena)

let qcheck_arena_recycle_never_live =
  (* Property: across any interleaving of allocs and recycles, an
     allocation never returns a chunk that is still live (handed out and
     not yet recycled), and the RefSan ledger — which tracks recycled
     chunks as free + alloc — raises no diagnostic for the interleaving. *)
  QCheck.Test.make ~name:"arena recycling never hands out a live chunk"
    ~count:50
    QCheck.(list (pair (int_range 1 300) bool))
    (fun ops ->
      let was = Sanitizer.Refsan.is_enabled () in
      Sanitizer.Refsan.reset ();
      Sanitizer.Refsan.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Sanitizer.Refsan.set_enabled was;
          Sanitizer.Refsan.reset ())
        (fun () ->
          let space = Mem.Addr_space.create () in
          let arena = Mem.Arena.create space ~capacity:(1 lsl 16) in
          let live = Hashtbl.create 16 in
          let ok = ref true in
          List.iter
            (fun (len, do_recycle) ->
              match Mem.Arena.alloc ~site:"prop.alloc" arena ~len with
              | v ->
                  (* Free-list reuse hands back a previous chunk's exact
                     start address; a live one must never reappear. *)
                  if Hashtbl.mem live v.Mem.View.addr then ok := false;
                  if do_recycle then
                    Mem.Arena.recycle ~site:"prop.recycle" arena v
                  else Hashtbl.replace live v.Mem.View.addr ()
              | exception Mem.Pinned.Out_of_memory _ -> ())
            ops;
          !ok && Sanitizer.Refsan.diagnostics () = []))

let suite =
  [
    Alcotest.test_case "alloc and fill" `Quick test_alloc_and_fill;
    Alcotest.test_case "alloc exhaustion and recycle" `Quick test_alloc_exhaustion;
    Alcotest.test_case "no class large enough" `Quick test_no_class_large_enough;
    Alcotest.test_case "refcount lifecycle" `Quick test_refcount_lifecycle;
    Alcotest.test_case "use after free raises" `Quick test_use_after_free_raises;
    Alcotest.test_case "stale generation detected" `Quick test_stale_generation_detected;
    Alcotest.test_case "sub shares refcount" `Quick test_sub_shares_refcount;
    Alcotest.test_case "recover_ptr middle of allocation" `Quick test_recover_ptr_middle;
    Alcotest.test_case "recover_ptr rejects unpinned" `Quick test_recover_ptr_unpinned_fails;
    Alcotest.test_case "recover_ptr rejects freed slot" `Quick test_recover_ptr_freed_slot_fails;
    Alcotest.test_case "recover_ptr rejects straddle" `Quick test_recover_ptr_straddle_fails;
    Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
    Alcotest.test_case "endpoint heap growth" `Quick test_endpoint_heap_growth;
    Alcotest.test_case "arena copy and reset" `Quick test_arena_copy_and_reset;
    Alcotest.test_case "arena exhaustion" `Quick test_arena_exhaustion;
    Alcotest.test_case "arena recycle reuses chunk" `Quick
      test_arena_recycle_reuses_and_counts;
    QCheck_alcotest.to_alcotest qcheck_arena_recycle_never_live;
    Alcotest.test_case "view sub and blit" `Quick test_view_sub_and_blit;
    Alcotest.test_case "addr space disjoint" `Quick test_addr_space_disjoint;
    QCheck_alcotest.to_alcotest qcheck_alloc_free_capacity;
    QCheck_alcotest.to_alcotest qcheck_recover_roundtrip;
  ]
