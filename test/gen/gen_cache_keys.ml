(* Regenerate the persisted cache-key fixture:

     dune exec test/gen/gen_cache_keys.exe > test/golden/cache_keys.txt

   Cache keys are written into WAL files, so a key that changes bytes
   orphans every stored result.  Only regenerate when a key-format
   change is intended (and bump Cache.version with it). *)

let points =
  [ Printf.sprintf "6x6/i2x2/b8/rest/u%d/ii64"; Printf.sprintf "4x4/i1x1/b4/normal/u%d/ii32";
    Printf.sprintf "8x8/i4x4/b8/relax/u%d/ii64" ]

let () =
  List.iter
    (fun kernel ->
      List.iter
        (fun unroll ->
          List.iter
            (fun point ->
              match Iced_explore.Space.of_string (point unroll) with
              | Some p -> print_endline (Iced_explore.Cache.key p kernel)
              | None -> failwith ("unparsable point " ^ point unroll))
            points)
        [ 1; 2 ])
    Iced_kernels.Registry.all
