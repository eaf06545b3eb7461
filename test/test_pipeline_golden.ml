(* Byte-identity guard for the transform pipeline.

   Every BLAS kernel on P4E, over a fixed grid of parameter points:
   the MD5 of the rendered, register-allocated function must equal the
   committed golden.  The goldens pin the compiler's output exactly, so
   a pass that is rewritten for speed (not for code quality) must leave
   every one of them unchanged; a deliberate change to generated code
   updates the table from the failure messages, which print each new
   digest.  The same
   points also pin [Exec.digest] to the hex MD5 of [Cfg.to_string]. *)
open Ifko_blas
open Ifko_transform

let line_bytes = Ifko_machine.Config.p4e.Ifko_machine.Config.prefetchable_line

let grid id =
  let d = Params.default ~line_bytes (Ifko_analysis.Report.analyze (Hil_sources.compile id)) in
  let pf kind =
    List.map (fun (a, _) -> (a, { Params.pf_ins = kind; pf_dist = 2 * line_bytes })) d.Params.prefetch
  in
  [ ("default", d);
    ("sv-off", { d with Params.sv = false });
    ("ur1", { d with Params.unroll = 1 });
    ("ur4", { d with Params.unroll = 4 });
    ("ur16", { d with Params.unroll = 16 });
    ("ur64", { d with Params.unroll = 64 });
    ("ae2", { d with Params.ae = 2 });
    ("ae4", { d with Params.ae = 4 });
    ("pf-none", { d with Params.prefetch = [] });
    ("pf-t0-2lines", { d with Params.prefetch = pf (Some Instr.T0) });
    ("wnt", { d with Params.wnt = true });
    ("lc-off", { d with Params.lc = false });
    ("bf", { d with Params.bf = 4 * line_bytes });
    ("cisc", { d with Params.cisc = true });
  ]

let md5 s = Digest.to_hex (Digest.string s)

(* [(kernel, point, func)] over the whole grid, in a fixed order. *)
let outputs () =
  List.concat_map
    (fun id ->
      let lowered = Hil_sources.compile id in
      List.map
        (fun (point, params) ->
          (Defs.name id, point, (Pipeline.apply ~line_bytes lowered params).Ifko_codegen.Lower.func))
        (grid id))
    Defs.all

(* Generated at the commit before the pipeline's linear-time rewrite of
   Peephole, Regalloc, Validate and Reg.compare. *)
let goldens =
  [
    ("sswap", "default", "74c4dfa151bbbb50c8a96c47c2f8a040");
    ("sswap", "sv-off", "fbd195eaca71ca2070b203312e6a0ca4");
    ("sswap", "ur1", "630ec96d9239d61442428fd40fac3b0b");
    ("sswap", "ur4", "894604db6b8790c89af4189ba0b51962");
    ("sswap", "ur16", "c7a36a1128fb7c8855baa33f51b1bb3a");
    ("sswap", "ur64", "43bc528da882ead97a3c7272847c1412");
    ("sswap", "ae2", "74c4dfa151bbbb50c8a96c47c2f8a040");
    ("sswap", "ae4", "74c4dfa151bbbb50c8a96c47c2f8a040");
    ("sswap", "pf-none", "67413f4de084a0f9b7fd4e17fe5d953e");
    ("sswap", "pf-t0-2lines", "01c25270e3aa01a4323cf87f13e1094a");
    ("sswap", "wnt", "93715aea7a74d5085a27433379393e66");
    ("sswap", "lc-off", "88703b1a41da66371174886f32d9609b");
    ("sswap", "bf", "e32ad7ee3a709df6b2a98f8a324dc3a1");
    ("sswap", "cisc", "9df36fae7cbd369f561f24a90f67034c");
    ("dswap", "default", "d93d2e821c84f140d7cbcdeb0767150a");
    ("dswap", "sv-off", "605bbc7e44c07f09799d3c99a8f51052");
    ("dswap", "ur1", "eb3fb4c9f695ed3a95477e78873ada93");
    ("dswap", "ur4", "c4c83a87f7da1ad15d7d5a80770d1595");
    ("dswap", "ur16", "d93d2e821c84f140d7cbcdeb0767150a");
    ("dswap", "ur64", "4a94c17779f3ba34ab75d8fb94048154");
    ("dswap", "ae2", "d93d2e821c84f140d7cbcdeb0767150a");
    ("dswap", "ae4", "d93d2e821c84f140d7cbcdeb0767150a");
    ("dswap", "pf-none", "e82572b41bce81494ace6fbeeeac1cc3");
    ("dswap", "pf-t0-2lines", "038411b3ae671e7da7b60a66426d2ed4");
    ("dswap", "wnt", "5dfc07a3199f1545f0992d42c115be9a");
    ("dswap", "lc-off", "8e8bdc84e8709deac4dbdef855ccbfe5");
    ("dswap", "bf", "8690836259bdb42598d3337b8e18fd5a");
    ("dswap", "cisc", "f8d31ce8b717ba3852bb16630945252d");
    ("sscal", "default", "da727af43d9c440a613ae00cf81a6e31");
    ("sscal", "sv-off", "b8bab7bcfdf8c8e3248f5ac754d4e91c");
    ("sscal", "ur1", "6f43bd7cf0fdf52c9a3e685980e0b18d");
    ("sscal", "ur4", "385794fb2363d3b7515bb754899c9e1b");
    ("sscal", "ur16", "cabac7f54b7df7779aa5b3ab2eeb51da");
    ("sscal", "ur64", "df51db67a01d21f786a9c264403d3b5f");
    ("sscal", "ae2", "da727af43d9c440a613ae00cf81a6e31");
    ("sscal", "ae4", "da727af43d9c440a613ae00cf81a6e31");
    ("sscal", "pf-none", "a76ce75c4471d8391c78f03a94558790");
    ("sscal", "pf-t0-2lines", "f85cfb44f12069e4c8426b6cd4a54a6c");
    ("sscal", "wnt", "67432f0d569c0713ac186298a38264c2");
    ("sscal", "lc-off", "4537b20acc7b8cf4f7cf7aafc5b6ab63");
    ("sscal", "bf", "ff392b04ed623879dfa288de50bbe682");
    ("sscal", "cisc", "da727af43d9c440a613ae00cf81a6e31");
    ("dscal", "default", "a1030ef4955d039135f874be8d3841a8");
    ("dscal", "sv-off", "03148f2cce19b55caef14c49f869810c");
    ("dscal", "ur1", "f36633202843e4c67724f1178c3114d5");
    ("dscal", "ur4", "78297c967724c61efa394762c10945dc");
    ("dscal", "ur16", "a1030ef4955d039135f874be8d3841a8");
    ("dscal", "ur64", "9c36586e1d168505ccaeb059d9736f66");
    ("dscal", "ae2", "a1030ef4955d039135f874be8d3841a8");
    ("dscal", "ae4", "a1030ef4955d039135f874be8d3841a8");
    ("dscal", "pf-none", "4236688479f30ef3633e765992d6b656");
    ("dscal", "pf-t0-2lines", "69ce460b8b66d305eec1a71f499c0b06");
    ("dscal", "wnt", "df0c1c81a858187b0f1e74665336b451");
    ("dscal", "lc-off", "18cb8364032aec12e89e5c37331dd809");
    ("dscal", "bf", "3513e13740560493f493026359fc2f48");
    ("dscal", "cisc", "a1030ef4955d039135f874be8d3841a8");
    ("scopy", "default", "70177599d3fc0c0fa07a30800b3d245e");
    ("scopy", "sv-off", "5be3d1e10af2db8a1a3e60f05934b3d7");
    ("scopy", "ur1", "b52b4a175767f9d63d9155dc014f2749");
    ("scopy", "ur4", "de58a5b1c775274ccf1a51907eaa3869");
    ("scopy", "ur16", "8157b32f4ab7e1c5326ece02a3a17ac3");
    ("scopy", "ur64", "50f4f5664f9bd10fc3863ddcbb4f3000");
    ("scopy", "ae2", "70177599d3fc0c0fa07a30800b3d245e");
    ("scopy", "ae4", "70177599d3fc0c0fa07a30800b3d245e");
    ("scopy", "pf-none", "9d1b3bcbb55a21b49425b9ab17e0dc0c");
    ("scopy", "pf-t0-2lines", "5c51d00f39aa4e8bccc35f750eb87624");
    ("scopy", "wnt", "333594d2090828a84f00e6a31c6d158f");
    ("scopy", "lc-off", "c5c8d2358c1a29a008f42a1fc15aa5e8");
    ("scopy", "bf", "dac5f0cfb3f25be4c3481ba19c19bed6");
    ("scopy", "cisc", "23eb1af7acfc3f0ee9e65b03da12dd2b");
    ("dcopy", "default", "ec1aecee020e89539bcb479d6cc3d15f");
    ("dcopy", "sv-off", "e2a263935a58a0212c7eca310f8e0da1");
    ("dcopy", "ur1", "1b49130340b1d3132bac75657a4f5809");
    ("dcopy", "ur4", "f1d1b4ea564be1159c5b6718e844bed2");
    ("dcopy", "ur16", "ec1aecee020e89539bcb479d6cc3d15f");
    ("dcopy", "ur64", "4d126703362499ca0b7c22061dc066d2");
    ("dcopy", "ae2", "ec1aecee020e89539bcb479d6cc3d15f");
    ("dcopy", "ae4", "ec1aecee020e89539bcb479d6cc3d15f");
    ("dcopy", "pf-none", "7454c2877e1b6c912161ae749c0cf25e");
    ("dcopy", "pf-t0-2lines", "7d7178dff20c66a13987d53a6e50a0ce");
    ("dcopy", "wnt", "02a4230e4603cef2b882f9e781df9521");
    ("dcopy", "lc-off", "0a10eac2b2a55b65c730779e53747b70");
    ("dcopy", "bf", "d6426245259e335022e41f0101ed5703");
    ("dcopy", "cisc", "6c7e5ac281ae4d6c51e8e1569b6e8787");
    ("saxpy", "default", "fe5b972ffdd3986b12a807e133b7fab6");
    ("saxpy", "sv-off", "acb5c66ede7fce8325d0b8b08abf1f5f");
    ("saxpy", "ur1", "2d34e7ae25d5dcf756e835b8402534d0");
    ("saxpy", "ur4", "8e0972efade452780a17270709843c4c");
    ("saxpy", "ur16", "d39f3b1185d291636e1e594978e5c667");
    ("saxpy", "ur64", "791b58979d4d5728c05e60143e6d0f24");
    ("saxpy", "ae2", "fe5b972ffdd3986b12a807e133b7fab6");
    ("saxpy", "ae4", "fe5b972ffdd3986b12a807e133b7fab6");
    ("saxpy", "pf-none", "b2745ad13e5d3e5aff46879a5586310c");
    ("saxpy", "pf-t0-2lines", "9513e7084bb832337c6b9c1156246260");
    ("saxpy", "wnt", "557cc8074bc7201b3768157f050e993a");
    ("saxpy", "lc-off", "7ecd783efb9f0bf74371f572336a9f85");
    ("saxpy", "bf", "456807f67676f70dff39b416f38b37f4");
    ("saxpy", "cisc", "bdab16688bd7a7f6c0d08947abb354bf");
    ("daxpy", "default", "8e55083aa7f4877c3196a99eb6157b30");
    ("daxpy", "sv-off", "6fa541c10f63a8689922e5dbdfdaae15");
    ("daxpy", "ur1", "25e4211a22e318abb69b38c67813ac50");
    ("daxpy", "ur4", "91c4a1d03887469627c590ee36c7c80b");
    ("daxpy", "ur16", "8e55083aa7f4877c3196a99eb6157b30");
    ("daxpy", "ur64", "a8c5ca74fe4520a24ffad95aa872186c");
    ("daxpy", "ae2", "8e55083aa7f4877c3196a99eb6157b30");
    ("daxpy", "ae4", "8e55083aa7f4877c3196a99eb6157b30");
    ("daxpy", "pf-none", "a3c1df4083d4dd4c016afe95083ebc34");
    ("daxpy", "pf-t0-2lines", "9f1537846621ecb195777df06444fd74");
    ("daxpy", "wnt", "644a9693cf278a42308bd1acae6f8bf6");
    ("daxpy", "lc-off", "10968a478c5378bd5fec7013300df5de");
    ("daxpy", "bf", "cbdca3b16e9007a1d46de568a583b78e");
    ("daxpy", "cisc", "373f709ab6a3653f4c1d1306d5aa5088");
    ("sdot", "default", "dfa7ad96bcc9f3f7c9ade44d9a1f8e89");
    ("sdot", "sv-off", "bb51423f376cc223615de4667726155c");
    ("sdot", "ur1", "b06129ef5be71241c7c6757c5b6900fe");
    ("sdot", "ur4", "e1ddf5dc75e00b98e201f7a828834164");
    ("sdot", "ur16", "a885f0f99082f73a73cf0e06de5d9686");
    ("sdot", "ur64", "f95cc4d342e9d64165344af7d30ef41e");
    ("sdot", "ae2", "9b249e74171343b5b96a6c900c801e9c");
    ("sdot", "ae4", "64ad7a8670da8070ac2b7bf6a1d6f87e");
    ("sdot", "pf-none", "8f38bbb30ed2d0c4389915dd4bf3f373");
    ("sdot", "pf-t0-2lines", "023494bb85f437436d2c53976906cc4c");
    ("sdot", "wnt", "dfa7ad96bcc9f3f7c9ade44d9a1f8e89");
    ("sdot", "lc-off", "adf0989c19c8f6840d913d6506495dc6");
    ("sdot", "bf", "c626b0a3f03ede8df96c8b6fbe9742da");
    ("sdot", "cisc", "baf1fb409bfc547baa089f93ecf10827");
    ("ddot", "default", "a476bab35e822bf58f6da4c21e667a20");
    ("ddot", "sv-off", "e99ae6fef0bd759071565a2f4944675e");
    ("ddot", "ur1", "5b56db6211bf60898314e2701dcb7c3a");
    ("ddot", "ur4", "a6572b2c3821c3c4d54b865e17040e8a");
    ("ddot", "ur16", "a476bab35e822bf58f6da4c21e667a20");
    ("ddot", "ur64", "45c702a6d3231527ec53c410edd24ffc");
    ("ddot", "ae2", "4b983355cb0e4cf15b0ff0dc9c07c128");
    ("ddot", "ae4", "83a7b4fd4419ce55b4763a1340b76fa1");
    ("ddot", "pf-none", "78854dbbd7b59fb4b387c95682ef1bc8");
    ("ddot", "pf-t0-2lines", "5bdd8bcb65b23b0c2715aedf4301125f");
    ("ddot", "wnt", "a476bab35e822bf58f6da4c21e667a20");
    ("ddot", "lc-off", "7ce18b2bb3e59245a8851136d833064d");
    ("ddot", "bf", "9ec79a8514117db8cce924a5fda4af3f");
    ("ddot", "cisc", "655065508b2ed82f4e13a934aec91fc9");
    ("sasum", "default", "3d7d64f6c39e7db4b775dac03a64e192");
    ("sasum", "sv-off", "bfe2523e32398668a1bac131a35bcebf");
    ("sasum", "ur1", "6ac73f3fa4826a79d4799a6751e76ac6");
    ("sasum", "ur4", "50e7d28407ecdb6c1f3313861303d8c6");
    ("sasum", "ur16", "d13a2e5c56c384576f4cc2985584f247");
    ("sasum", "ur64", "d1e6812e2fda4ccccb4e799514a35051");
    ("sasum", "ae2", "0579679f6eaa832bdb3690e42ba31ef6");
    ("sasum", "ae4", "34f698e2a9e7f15f885ea35237155a1d");
    ("sasum", "pf-none", "5376cabfc7c6b19ce4186c27b92f202a");
    ("sasum", "pf-t0-2lines", "b50d1dbeaed0ee1690a970c1b1bf6738");
    ("sasum", "wnt", "3d7d64f6c39e7db4b775dac03a64e192");
    ("sasum", "lc-off", "f7e077ca673841e3a7b464ad44d7aa1b");
    ("sasum", "bf", "cc313f97f4a8442c5e01db212f6383f0");
    ("sasum", "cisc", "3d7d64f6c39e7db4b775dac03a64e192");
    ("dasum", "default", "bb17b635ef7e84876dfd6c7f2f948ce2");
    ("dasum", "sv-off", "cc91ebb429d80ba201d17f31ba529cee");
    ("dasum", "ur1", "89657040edce47c7454257bb673dd050");
    ("dasum", "ur4", "4a269cd009979c6729c644aad54bb07e");
    ("dasum", "ur16", "bb17b635ef7e84876dfd6c7f2f948ce2");
    ("dasum", "ur64", "d9bf747418a80f3a389b6223519c38ff");
    ("dasum", "ae2", "39be7773313014ac09134a9b8c329694");
    ("dasum", "ae4", "30a786cb73602a5941e1b683e2344ee4");
    ("dasum", "pf-none", "eedf53e9e245eefc41dab89bd2a8c7ac");
    ("dasum", "pf-t0-2lines", "788900266acd885c0d21d6726bc0a518");
    ("dasum", "wnt", "bb17b635ef7e84876dfd6c7f2f948ce2");
    ("dasum", "lc-off", "851c98449dcf9d03838230f739d45340");
    ("dasum", "bf", "882848786b930d7190a5c081724ef318");
    ("dasum", "cisc", "bb17b635ef7e84876dfd6c7f2f948ce2");
    ("isamax", "default", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "sv-off", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "ur1", "1137db46d240677ccdb629c52d6885af");
    ("isamax", "ur4", "e2226f09eec2e90b1add4181a05c2e2f");
    ("isamax", "ur16", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "ur64", "e3d347553c3fbf44fc7651ae58dc41ee");
    ("isamax", "ae2", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "ae4", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "pf-none", "50bca6dd7e6cd9bdb3485a8f1dad6381");
    ("isamax", "pf-t0-2lines", "1d4bdc4c1f581518a53686518927c9a9");
    ("isamax", "wnt", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "lc-off", "115f8a8e25a026da7e95bb51672ecfbd");
    ("isamax", "bf", "7a20e929f4906b096cca043dff429c58");
    ("isamax", "cisc", "7a20e929f4906b096cca043dff429c58");
    ("idamax", "default", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "sv-off", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "ur1", "03dbce7674a81bc762af86be71ab9aff");
    ("idamax", "ur4", "5bf7c25cb0288c73be288ec4fe7496a9");
    ("idamax", "ur16", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "ur64", "a668e1a5cb85cbc593e28e10e938f39f");
    ("idamax", "ae2", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "ae4", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "pf-none", "a6d3d9335a8e02f1de4db72d237f60f1");
    ("idamax", "pf-t0-2lines", "b07e34a10b2a15eab294a839f0423099");
    ("idamax", "wnt", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "lc-off", "5b4634dd68e868c1a8896d251339b3cc");
    ("idamax", "bf", "0aff97bd593acbcbe3e3039f83d217ad");
    ("idamax", "cisc", "0aff97bd593acbcbe3e3039f83d217ad");
  ]

let test_goldens () =
  let outs = outputs () in
  Alcotest.(check int) "grid size" (List.length goldens) (List.length outs);
  List.iter2
    (fun (k, p, f) (gk, gp, gmd5) ->
      Alcotest.(check (pair string string)) "grid order" (gk, gp) (k, p);
      Alcotest.(check string) (Printf.sprintf "%s %s" k p) gmd5 (md5 (Cfg.to_string f)))
    outs goldens

let test_exec_digest () =
  List.iter
    (fun (k, p, f) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s" k p)
        (md5 (Cfg.to_string f))
        (Ifko_sim.Exec.digest (Ifko_sim.Exec.compile f)))
    (outputs ())

(* Trajectory goldens: the points a search walks through, beyond the
   fixed grid above, on both machines' line sizes.  For every kernel
   and machine: each single-axis step of [Space.axes]'s domains (block
   fetch and CISC indexing included) away from the default point, then
   a fixed seeded sample of points that move every axis at once.  One
   digest per (kernel, machine) covers its whole trajectory: the MD5 of
   every point's canonical parameters and output digest ([illegal]
   when the pipeline refuses the point), in order. *)
let sampled_points = 20

module Space = Ifko_search.Space

(* [seed] fixes the sample: the kernel's and machine's positions. *)
let trajectory ~seed (cfg : Ifko_machine.Config.t) id =
  let report = Ifko_analysis.Report.analyze (Hil_sources.compile id) in
  let d = Params.default ~line_bytes:cfg.Ifko_machine.Config.prefetchable_line report in
  let axes = Space.axes ~extensions:true ~cfg ~report () in
  let steps =
    List.concat_map
      (fun (ax : Space.axis) ->
        List.filter_map
          (fun v -> if v = ax.Space.ax_get d then None else Some (ax.Space.ax_set d v))
          ax.Space.ax_values)
      axes
  in
  let rng = Ifko_util.Rng.create seed in
  let pick vs = List.nth vs (Ifko_util.Rng.int rng (List.length vs)) in
  let sampled =
    List.init sampled_points (fun _ ->
        List.fold_left (fun p (ax : Space.axis) -> ax.Space.ax_set p (pick ax.Space.ax_values)) d axes)
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let k = Params.canonical p in
      let fresh = not (Hashtbl.mem seen k) in
      Hashtbl.replace seen k ();
      fresh)
    ((d :: steps) @ sampled)

let trajectory_digest ~seed (cfg : Ifko_machine.Config.t) id =
  let lowered = Hil_sources.compile id in
  let line_bytes = cfg.Ifko_machine.Config.prefetchable_line in
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      let out =
        match Pipeline.apply ~line_bytes lowered p with
        | c -> md5 (Cfg.to_string c.Ifko_codegen.Lower.func)
        | exception _ -> "illegal"
      in
      Buffer.add_string buf (Printf.sprintf "%s=%s\n" (Params.canonical p) out))
    (trajectory ~seed cfg id);
  md5 (Buffer.contents buf)

let trajectory_outputs () =
  List.concat
    (List.mapi
       (fun m cfg ->
         List.mapi
           (fun k id ->
             ( Defs.name id,
               cfg.Ifko_machine.Config.name,
               trajectory_digest ~seed:((100 * m) + k) cfg id ))
           Defs.all)
       [ Ifko_machine.Config.p4e; Ifko_machine.Config.opteron ])

(* Generated with the pipeline as it was before the repeatable block
   stopped running confirming rounds and recomputing liveness per
   pass. *)
let trajectory_goldens =
  [
    ("sswap", "P4E", "7a0d9676d7a15dc4337a7604511eedd7");
    ("dswap", "P4E", "052d1a5cd47ea7b51e90a29d851e441f");
    ("sscal", "P4E", "c3547fc3095c01f630f07cb9a64b0f23");
    ("dscal", "P4E", "0a0742efa30c05d3cbdd2ccdaff93dae");
    ("scopy", "P4E", "b5effcf1990568ba24b307d173118080");
    ("dcopy", "P4E", "f99ae5dbed1f1dc7edb15e94eeae00e1");
    ("saxpy", "P4E", "a5d14ed5cd62a8ae5d40756b8b0e1842");
    ("daxpy", "P4E", "f53a9592b5d94b036d665bc4ce21fc3f");
    ("sdot", "P4E", "08e39572f349af357f4ea8fb6a3d33a9");
    ("ddot", "P4E", "d5fe5ff255fe28c43079f9fea92c040c");
    ("sasum", "P4E", "a08fe8ee2c1c0d6eb27251dcf58c34db");
    ("dasum", "P4E", "2bb2e4898d8525f1171bc66fb7351313");
    ("isamax", "P4E", "e00082e968cf19e58b12a18e7165b544");
    ("idamax", "P4E", "e329d9aeeba0403d2e64674754324a88");
    ("sswap", "Opteron", "483cf9c094f61d15ed17c23db4692b1f");
    ("dswap", "Opteron", "eb71884a583e18124aacd2f50c3decdb");
    ("sscal", "Opteron", "47c54cfa53ac08e711d0ebc48e9e385c");
    ("dscal", "Opteron", "d79177bcbeb31352b8f8689953be4818");
    ("scopy", "Opteron", "724c4878433458847f9d3fb5f1080456");
    ("dcopy", "Opteron", "042d9dd79b8a7b8161fde44b18b57be0");
    ("saxpy", "Opteron", "764136974739c84bcc7bfb0e9f7d844d");
    ("daxpy", "Opteron", "5b709b4ffae7932f5f38f9a03adf12cc");
    ("sdot", "Opteron", "91431457b6355991d893dc5d03bab7fb");
    ("ddot", "Opteron", "da49b59166f5d0a3ae6f356287315b8b");
    ("sasum", "Opteron", "934a369a1eaf4b516e7a2f84c2954112");
    ("dasum", "Opteron", "0424337315dc9c397a83bd7e69d5bdfb");
    ("isamax", "Opteron", "af3db8f2e8c0f1ef315f4a765aea6853");
    ("idamax", "Opteron", "9f52051044cb59f84247b638d8a928b4");
  ]

let test_trajectory_goldens () =
  let outs = trajectory_outputs () in
  Alcotest.(check int) "trajectory count" (List.length trajectory_goldens) (List.length outs);
  List.iter2
    (fun (k, m, digest) (gk, gm, gdigest) ->
      Alcotest.(check (pair string string)) "trajectory order" (gk, gm) (k, m);
      Alcotest.(check string) (Printf.sprintf "%s on %s" k m) gdigest digest)
    outs trajectory_goldens

(* The repeatable block against the loop it replaces, written out
   here: all four passes every round until a round changes nothing.
   Skipping only passes that would change nothing, [Pipeline.repeatable]
   must leave the same function, report the same round count and name
   the same passes in the same rounds to [on_pass] — on the golden grid
   and on fuzz-generated kernels, a fifth of whose points take three
   or more rounds. *)
let naive_repeatable ~protect (f : Cfg.func) =
  let fired = ref [] in
  let rec go n =
    let sub name run =
      let c = run f in
      if c then fired := Printf.sprintf "%s (round %d)" name n :: !fired;
      c
    in
    let c1 = sub "copyprop" Copyprop.run in
    let c2 = sub "peephole" Peephole.run in
    let c3 = sub "deadcode" Deadcode.run in
    let c4 = sub "branchopt" (Branchopt.run ~protect) in
    if (c1 || c2 || c3 || c4) && n < Pipeline.max_repeat then go (n + 1) else n + 1
  in
  let rounds = go 0 in
  (rounds, List.rev !fired)

(* The fundamental transformations as [Pipeline.apply] runs them, so the
   block starts from the code it sees in a real invocation. *)
let fundamentals ~line_bytes lowered (p : Params.t) =
  let c = Pipeline.snapshot lowered in
  let ok = ignore in
  if p.Params.sv then ok (Simd.apply c);
  if p.Params.unroll > 1 then ok (Unroll.apply c p.Params.unroll);
  if p.Params.cisc then Ciscidx.apply c;
  if p.Params.lc then Loopctl.apply c;
  if p.Params.ae > 1 then ok (Accexp.apply c p.Params.ae);
  if p.Params.bf > 0 then Blockfetch.apply c p.Params.bf;
  if p.Params.prefetch <> [] then Prefetch_xform.apply c ~line_bytes p.Params.prefetch;
  if p.Params.wnt then ok (Ntwrite.apply c);
  c

let check_repeatable_func what ~protect (f : Cfg.func) =
  let g = Cfg.copy f in
  let naive_rounds, naive_fired = naive_repeatable ~protect g in
  let fired = ref [] in
  let rounds = Pipeline.repeatable ~protect ~on_pass:(fun n -> fired := n :: !fired) f in
  Alcotest.(check string) (what ^ " code") (Cfg.to_string g) (Cfg.to_string f);
  Alcotest.(check int) (what ^ " rounds") naive_rounds rounds;
  Alcotest.(check (list string)) (what ^ " passes") naive_fired (List.rev !fired)

let check_repeatable what ~line_bytes lowered p =
  match fundamentals ~line_bytes lowered p with
  | exception _ -> ()
  | c ->
    check_repeatable_func what ~protect:(Pipeline.protected_labels c) c.Ifko_codegen.Lower.func

(* Functions whose later rounds need the rules the BLAS and fuzz
   points never exercise.  In [rethread], the second round's copy
   propagation, peephole and dead code empty the block the first
   round's cleanup merged, so cleanup must run again to thread the
   branch past it.  In [repropagate], copy propagation across the
   merged blocks alone leaves a copy dead, so dead-code elimination
   must run again.  In [unreachable_use], the only read of a loop's
   self-updated register sits in an unreachable block: once cleanup
   drops that block, dead-code elimination must run again to remove
   the now-faint updates. *)
let gpr i = Reg.virt Reg.Gpr i

let hand_built () =
  let func blocks =
    let f = Cfg.create ~name:"t" ~params:[ ("N", gpr 0) ] in
    f.Cfg.blocks <- blocks;
    Ifko_util.Ids.reserve f.Cfg.reg_ids 8;
    f
  in
  let br ifso ifnot = Block.Br { cmp = Instr.Gt; lhs = gpr 0; rhs = Instr.Oimm 0; ifso; ifnot; dec = 0 } in
  [ ( "rethread",
      func
        [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 1, 5) ] ~term:(br "a" "c");
          Block.make "a" ~instrs:[ Instr.Imov (gpr 2, gpr 1) ] ~term:(Block.Jmp "b");
          Block.make "b" ~instrs:[ Instr.Imov (gpr 1, gpr 2) ] ~term:(Block.Jmp "c");
          Block.make "c" ~term:(Block.Ret (Some (gpr 1)));
        ] );
    ( "repropagate",
      func
        [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 1, 5) ] ~term:(br "a" "c");
          Block.make "a" ~instrs:[ Instr.Imov (gpr 2, gpr 1) ] ~term:(Block.Jmp "b");
          Block.make "b" ~instrs:[ Instr.Ist (Instr.mk_mem (gpr 0), gpr 2) ] ~term:(Block.Jmp "c");
          Block.make "c" ~term:(Block.Ret None);
        ] );
    ( "unreachable_use",
      func
        [ Block.make "entry" ~instrs:[ Instr.Ildi (gpr 1, 0) ] ~term:(Block.Jmp "loop");
          Block.make "loop"
            ~instrs:[ Instr.Iop (Instr.Iadd, gpr 1, gpr 1, Instr.Oimm 1) ]
            ~term:(Block.Br { cmp = Instr.Ge; lhs = gpr 0; rhs = Instr.Oimm 1; ifso = "loop";
                              ifnot = "out"; dec = 1 });
          Block.make "out" ~term:(Block.Ret None);
          Block.make "dead" ~instrs:[ Instr.Ist (Instr.mk_mem (gpr 0), gpr 1) ] ~term:(Block.Jmp "out");
        ] );
  ]

let test_repeatable_matches_naive_loop () =
  List.iter (fun (what, f) -> check_repeatable_func what ~protect:[] f) (hand_built ());
  List.iter
    (fun id ->
      let lowered = Hil_sources.compile id in
      List.iter
        (fun (point, p) -> check_repeatable (Defs.name id ^ " " ^ point) ~line_bytes lowered p)
        (grid id))
    Defs.all;
  let rng = Ifko_util.Rng.create 26 in
  for k = 1 to 40 do
    let lowered =
      Ifko_fuzz.Fuzz.compile
        (Ifko_fuzz.Gen.kernel rng ~name:(Printf.sprintf "k%d" k) ~max_size:8)
    in
    let report = Ifko_analysis.Report.analyze lowered in
    for i = 1 to 6 do
      check_repeatable
        (Printf.sprintf "fuzz k%d point %d" k i)
        ~line_bytes lowered
        (Ifko_fuzz.Sample.point rng ~line_bytes ~report)
    done
  done

let suite =
  [ Alcotest.test_case "pipeline output matches goldens" `Quick test_goldens;
    Alcotest.test_case "trajectory points match goldens" `Quick test_trajectory_goldens;
    Alcotest.test_case "repeatable block = the naive loop" `Quick test_repeatable_matches_naive_loop;
    Alcotest.test_case "Exec.digest is the MD5 of the rendered CFG" `Quick test_exec_digest;
  ]
