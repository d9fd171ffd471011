(* Bringing your own application: write a kernel in minic, wrap it as a
   registry entry, and run the full reconfiguration pipeline on it.

   The kernel here is a CRC-32 over a 12 KB message buffer — a typical
   embedded networking workload that is neither of the paper's four
   benchmarks.  Note how the optimizer's recommendation differs from
   both Arith's (this kernel is memory-streaming) and BLASTN's (its
   working set is smaller than 16 KB).

   Run with:  dune exec examples/custom_app.exe                      *)

open Minic.Ast

module Leon2 = Dse.Leon2.S

let message_bytes = 12288

(* Bitwise CRC-32 (reflected, polynomial 0xEDB88320). *)
let crc_fn =
  {
    name = "crc32";
    params = [ "len" ];
    locals = [ "crc"; "k"; "b"; "j" ];
    body =
      [
        Set ("crc", i 0xFFFFFFFF);
        Set ("k", i 0);
        While
          ( v "k" < v "len",
            [
              Set ("b", idx "msg" (v "k"));
              Set ("crc", v "crc" ^^^ v "b");
              Set ("j", i 0);
              While
                ( v "j" < i 8,
                  [
                    If
                      ( (v "crc" &&& i 1) = i 1,
                        [ Set ("crc", (v "crc" >>> i 1) ^^^ i 0xEDB88320) ],
                        [ Set ("crc", v "crc" >>> i 1) ] );
                    Set ("j", v "j" + i 1);
                  ] );
              Set ("k", v "k" + i 1);
            ] );
        Ret (v "crc" ^^^ i 0xFFFFFFFF);
      ];
  }

let main_fn =
  {
    name = "main";
    params = [];
    locals = [ "r" ];
    body = [ Set ("r", Call ("crc32", [ i message_bytes ])); Ret (v "r") ];
  }

let source =
  {
    globals =
      [
        Array_init
          ( "msg",
            Byte,
            Array.map
              (fun x -> x land 0xFF)
              (Apps.Workload.lcg_stream ~seed:0xC4C ~len:message_bytes) );
      ];
    funcs = [ crc_fn; main_fn ];
  }

let app =
  {
    Apps.Registry.name = "crc32";
    description = "CRC-32 of a 12 KB message (custom example kernel)";
    source;
    program = lazy (Minic.Codegen.compile source);
    reps = 200;
    paper_base_seconds = Float.nan;
  }

let () =
  (* Sanity: the reference interpreter and the simulator must agree
     (this also bounds-checks every array access). *)
  let expected = Apps.Registry.interp_checksum app in
  let got = (Apps.Registry.run app).Sim.Machine.checksum in
  assert (Int.equal expected got);
  Format.printf "crc32 checksum: %#x (interpreter and simulator agree)@.@."
    got;

  let outcome = Leon2.Optimizer.run ~weights:Dse.Cost.runtime_weights app in
  Format.printf "Recommended configuration for crc32:@.%a@.@." Arch.Config.pp
    outcome.Leon2.Optimizer.config;
  Leon2.Optimizer.print_outcome_summary Format.std_formatter outcome
