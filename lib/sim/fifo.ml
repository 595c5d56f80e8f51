type 'a t = {
  mutable buf : 'a array;
  mutable head : int;  (** slot of the oldest element *)
  mutable len : int;
  filler : 'a;
}

let create filler = { buf = [||]; head = 0; len = 0; filler }
let length q = q.len
let is_empty q = q.len = 0

let push q x =
  let n = Array.length q.buf in
  if q.len = n then begin
    let grown = Array.make (if n = 0 then 16 else 2 * n) q.filler in
    Array.blit q.buf q.head grown 0 (n - q.head);
    Array.blit q.buf 0 grown (n - q.head) q.head;
    q.buf <- grown;
    q.head <- 0
  end;
  let i = q.head + q.len in
  let i = if i >= Array.length q.buf then i - Array.length q.buf else i in
  q.buf.(i) <- x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Fifo.pop: empty queue";
  let x = q.buf.(q.head) in
  q.buf.(q.head) <- q.filler;
  q.head <- (if q.head + 1 = Array.length q.buf then 0 else q.head + 1);
  q.len <- q.len - 1;
  x

let clear q =
  Array.fill q.buf 0 (Array.length q.buf) q.filler;
  q.head <- 0;
  q.len <- 0
