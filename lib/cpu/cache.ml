type t = {
  lines : int;
  line_shift : int;
  tags : int array;  (** -1 = empty *)
  mutable hit_count : int;
  mutable miss_count : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(size_bytes = 524288) ?(line_bytes = 64) () =
  let lines = size_bytes / line_bytes in
  {
    lines;
    line_shift = log2 line_bytes;
    tags = Array.make lines (-1);
    hit_count = 0;
    miss_count = 0;
  }

let[@inline] access t paddr =
  let line = paddr lsr t.line_shift in
  let idx = line land (t.lines - 1) in
  if t.tags.(idx) = line then begin
    t.hit_count <- t.hit_count + 1;
    true
  end
  else begin
    t.tags.(idx) <- line;
    t.miss_count <- t.miss_count + 1;
    false
  end

let flush t = Array.fill t.tags 0 t.lines (-1)
let hits t = t.hit_count
let misses t = t.miss_count
