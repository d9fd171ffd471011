let queues = 256
let slot_shift = 4
let slots = 1 lsl slot_shift
let packets = 3072
let quantum = 400

open Minic.Ast

(* The paper's Benchmark II: [queues] queues of [slots] packet slots
   each; both are powers of two so the ring indices wrap with a mask. *)
let program =
  let slot_mask = Stdlib.( - ) slots 1 in
  let qmask = Stdlib.( - ) queues 1 in
  (* Enqueue a synthetic trace: queue and length from the LCG state. *)
  let enqueue_fn =
    {
      name = "enqueue";
      params = [];
      locals = [ "n"; "seed"; "q"; "len"; "t"; "accepted" ];
      body =
        [
          Set ("n", i 0);
          Set ("seed", i 0x5EED);
          Set ("accepted", i 0);
          While
            ( v "n" < i packets,
              [
                Set ("seed", ((v "seed" * i 1103515245) + i 12345) &&& i 0x7FFFFFFF);
                Set ("q", (v "seed" >>> i 16) &&& i qmask);
                Set ("len", i 64 + ((v "seed" >>> i 6) &&& i 1023));
                Set ("t", idx "qtail" (v "q"));
                If
                  ( ((v "t" + i 1) &&& i slot_mask) <> idx "qhead" (v "q"),
                    [
                      Set_idx ("qbuf", (v "q" <<< i slot_shift) + v "t", v "len");
                      Set_idx ("qtail", v "q", (v "t" + i 1) &&& i slot_mask);
                      Set ("accepted", v "accepted" + i 1);
                    ],
                    [] );
                Set ("n", v "n" + i 1);
              ] );
          Ret (v "accepted");
        ];
    }
  in
  (* Serve all enqueued packets in DRR order. *)
  let serve_fn =
    {
      name = "serve";
      params = [ "remaining" ];
      locals = [ "q"; "h"; "len"; "total"; "d" ];
      body =
        [
          Set ("total", i 0);
          While
            ( v "remaining" > i 0,
              [
                Set ("q", i 0);
                While
                  ( v "q" < i queues,
                    [
                      Set ("h", idx "qhead" (v "q"));
                      If
                        ( v "h" <> idx "qtail" (v "q"),
                          [
                            Set ("d", idx "deficit" (v "q") + i quantum);
                            Set ("len", idx "qbuf" ((v "q" <<< i slot_shift) + v "h"));
                            While
                              ( (v "h" <> idx "qtail" (v "q")) &&& (v "len" <= v "d"),
                                [
                                  Set ("d", v "d" - v "len");
                                  Set ("total", v "total" + v "len");
                                  Set ("h", (v "h" + i 1) &&& i slot_mask);
                                  Set ("remaining", v "remaining" - i 1);
                                  If
                                    ( v "h" <> idx "qtail" (v "q"),
                                      [ Set ("len", idx "qbuf" ((v "q" <<< i slot_shift) + v "h")) ],
                                      [] );
                                ] );
                            Set_idx ("qhead", v "q", v "h");
                            If
                              ( v "h" = idx "qtail" (v "q"),
                                [ Set_idx ("deficit", v "q", i 0) ],
                                [ Set_idx ("deficit", v "q", v "d") ] );
                          ],
                          [] );
                      Set ("q", v "q" + i 1);
                    ] );
              ] );
          Ret (v "total");
        ];
    }
  in
  let main_fn =
    {
      name = "main";
      params = [];
      locals = [ "accepted"; "total" ];
      body =
        [
          Set ("accepted", Call ("enqueue", []));
          Set ("total", Call ("serve", [ v "accepted" ]));
          Ret (v "total" + (v "accepted" <<< i 20));
        ];
    }
  in
  {
    globals =
      [
        Array ("qbuf", Word, Stdlib.( * ) queues slots);
        Array ("qhead", Word, queues);
        Array ("qtail", Word, queues);
        Array ("deficit", Word, queues);
      ];
    funcs = [ enqueue_fn; serve_fn; main_fn ];
  }
