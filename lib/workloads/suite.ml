(** The benchmark suite: the 13 workloads the evaluation runs, matching
    the archetypes (DSP kernels, media pipelines, search/codec programs)
    of the embedded suites that papers in this genre evaluate on. *)

let all : Workload.t list =
  [
    Kernels.fir;
    Kernels.dotprod;
    Kernels.fdotprod;
    Kernels.matmul;
    Kernels.conv2d;
    Kernels.iir;
    Media.imgpipe;
    Media.jpegblocks;
    Media.audio5;
    Media.prodcons_stream;
    Media.susan;
    Media.fraciter;
    Misc.crc32;
    Misc.stringsearch;
    Misc.histogram;
    Misc.adpcm;
    Misc.fft;
    Misc.phases;
    Misc.memops;
    Misc.peakdetect;
    Misc.tri;
  ]

let find name = List.find_opt (fun w -> w.Workload.name = name) all

let find_exn name =
  match find name with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

let names = List.map (fun w -> w.Workload.name) all

(** The four representative workloads used by the per-workload deep-dive
    figures (F1, F3): one doall kernel, one reduction, one farm, one
    pipeline. *)
let representative = [ "fir"; "dotprod"; "fraciter"; "imgpipe" ]
