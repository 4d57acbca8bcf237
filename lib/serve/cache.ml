(** An alias of {!Lp_util.Memo}, kept only because
    perfbench/serve_mixed.ml names it; it goes once that benchmark calls
    [Lp_util.Memo]. *)

include Lp_util.Memo
