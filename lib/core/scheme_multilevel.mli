(** Multilevel ruid ({!Mruid} with small areas) packaged as a {!Scheme.S}. *)

include Scheme.S with type t = Mruid.t
