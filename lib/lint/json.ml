(* The codec lives in [Proxim_util.Json]; this alias keeps
   [Proxim_lint.Json] users building unchanged. *)
include Proxim_util.Json
