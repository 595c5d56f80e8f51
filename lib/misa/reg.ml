type t = EAX | EBX | ECX | EDX | ESI | EDI | EBP | ESP

let all = [ EAX; EBX; ECX; EDX; ESI; EDI; EBP; ESP ]
let general = [ EAX; EBX; ECX; EDX; ESI; EDI; EBP ]

let[@inline] index = function
  | EAX -> 0
  | ECX -> 1
  | EDX -> 2
  | EBX -> 3
  | ESP -> 4
  | EBP -> 5
  | ESI -> 6
  | EDI -> 7

let of_index = function
  | 0 -> EAX
  | 1 -> ECX
  | 2 -> EDX
  | 3 -> EBX
  | 4 -> ESP
  | 5 -> EBP
  | 6 -> ESI
  | 7 -> EDI
  | n -> invalid_arg (Printf.sprintf "Reg.of_index: %d" n)

let equal a b = index a = index b
let compare a b = Int.compare (index a) (index b)

let to_string = function
  | EAX -> "eax"
  | EBX -> "ebx"
  | ECX -> "ecx"
  | EDX -> "edx"
  | ESI -> "esi"
  | EDI -> "edi"
  | EBP -> "ebp"
  | ESP -> "esp"

let of_string = function
  | "eax" -> Some EAX
  | "ebx" -> Some EBX
  | "ecx" -> Some ECX
  | "edx" -> Some EDX
  | "esi" -> Some ESI
  | "edi" -> Some EDI
  | "ebp" -> Some EBP
  | "esp" -> Some ESP
  | _ -> None

let pp fmt r = Format.fprintf fmt "%%%s" (to_string r)
