type scale = S1 | S2 | S4 | S8

let scale_factor = function S1 -> 1 | S2 -> 2 | S4 -> 4 | S8 -> 8

let scale_of_int = function
  | 1 -> Some S1
  | 2 -> Some S2
  | 4 -> Some S4
  | 8 -> Some S8
  | _ -> None

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;
  disp : int;
  sym : string option;
}

type t = Imm of int | Reg of Reg.t | Mem of mem

let mem ?base ?index ?sym disp = { base; index; disp; sym }

let is_stack_relative m =
  match (m.base, m.index) with
  | Some (Reg.ESP | Reg.EBP), None -> true
  | _, _ -> false

let regs_addr m =
  let base = match m.base with Some r -> [ r ] | None -> [] in
  let index = match m.index with Some (r, _) -> [ r ] | None -> [] in
  base @ index

let regs_read = function
  | Imm _ -> []
  | Reg r -> [ r ]
  | Mem m -> regs_addr m

let equal_mem a b =
  a.disp = b.disp && a.sym = b.sym
  && Option.equal Reg.equal a.base b.base
  && Option.equal
       (fun (r1, s1) (r2, s2) -> Reg.equal r1 r2 && s1 = s2)
       a.index b.index

let equal a b =
  match (a, b) with
  | Imm x, Imm y -> x = y
  | Reg x, Reg y -> Reg.equal x y
  | Mem x, Mem y -> equal_mem x y
  | (Imm _ | Reg _ | Mem _), _ -> false

let pp_mem fmt m =
  let pp_disp fmt =
    match (m.sym, m.disp) with
    | None, d -> Format.fprintf fmt "%d" d
    | Some s, 0 -> Format.fprintf fmt "%s" s
    | Some s, d -> Format.fprintf fmt "%d+%s" d s
  in
  match (m.base, m.index) with
  | None, None -> pp_disp fmt
  | Some b, None -> Format.fprintf fmt "%t(%a)" pp_disp Reg.pp b
  | None, Some (i, s) ->
      Format.fprintf fmt "%t(,%a,%d)" pp_disp Reg.pp i (scale_factor s)
  | Some b, Some (i, s) ->
      Format.fprintf fmt "%t(%a,%a,%d)" pp_disp Reg.pp b Reg.pp i
        (scale_factor s)

let pp fmt = function
  | Imm i -> Format.fprintf fmt "$%d" i
  | Reg r -> Reg.pp fmt r
  | Mem m -> pp_mem fmt m
