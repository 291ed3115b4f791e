let eps = 1e-12

(* Arc [2k] is the k-th added edge and [2k + 1] its reverse, so the
   reverse of arc [a] is [a lxor 1] and its tail is [dst.(a lxor 1)].
   Each node's arcs form a singly linked list in insertion order
   ([first], [last], [next]), which fixes the order the BFS and the
   augmenting-path search visit them in. *)
type t = {
  mutable n : int;
  mutable arcs : int;
  mutable dst : int array;
  mutable cap : float array;
  mutable next : int array;  (* next arc out of the same node, or -1 *)
  mutable first : int array;  (* per node: first out-arc, or -1 *)
  mutable last : int array;  (* per node: last out-arc, or -1 *)
  mutable level : int array;
  mutable iter : int array;  (* per node: the current arc of the search *)
  mutable queue : int array;  (* BFS queue; also the path's arc stack *)
}

let reset t n =
  if n > Array.length t.first then begin
    let size = max n (2 * Array.length t.first) in
    t.first <- Array.make size (-1);
    t.last <- Array.make size (-1);
    t.level <- Array.make size (-1);
    t.iter <- Array.make size (-1);
    t.queue <- Array.make size 0
  end;
  Array.fill t.first 0 n (-1);
  Array.fill t.last 0 n (-1);
  t.n <- n;
  t.arcs <- 0

let create n =
  let t =
    {
      n = 0;
      arcs = 0;
      dst = [||];
      cap = [||];
      next = [||];
      first = [||];
      last = [||];
      level = [||];
      iter = [||];
      queue = [||];
    }
  in
  reset t n;
  t

let append t u a =
  t.next.(a) <- -1;
  (if t.last.(u) < 0 then t.first.(u) <- a else t.next.(t.last.(u)) <- a);
  t.last.(u) <- a

let add_edge t ~src ~dst ~cap =
  if cap < 0.0 then invalid_arg "Maxflow.add_edge: negative capacity";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Maxflow.add_edge: node out of range";
  let a = t.arcs in
  if a + 2 > Array.length t.dst then begin
    let size = max 16 (2 * Array.length t.dst) in
    let grow arr fill =
      let bigger = Array.make size fill in
      Array.blit arr 0 bigger 0 a;
      bigger
    in
    t.dst <- grow t.dst 0;
    t.cap <- grow t.cap 0.0;
    t.next <- grow t.next (-1)
  end;
  t.dst.(a) <- dst;
  t.cap.(a) <- cap;
  t.dst.(a + 1) <- src;
  t.cap.(a + 1) <- 0.0;
  append t src a;
  append t dst (a + 1);
  t.arcs <- a + 2

(* Breadth-first levels from [s] over arcs with residual capacity;
   unreached nodes stay at -1. *)
let label_levels t ~s =
  let level = t.level and q = t.queue in
  Array.fill level 0 t.n (-1);
  level.(s) <- 0;
  q.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    let a = ref t.first.(u) in
    while !a >= 0 do
      let v = t.dst.(!a) in
      if t.cap.(!a) > eps && level.(v) = -1 then begin
        level.(v) <- level.(u) + 1;
        q.(!tail) <- v;
        incr tail
      end;
      a := t.next.(!a)
    done
  done

(* One Dinic phase's blocking flow, added to [flow]. A depth-first
   walk along level-increasing arcs keeps the arcs of the current path
   on a stack ([t.queue]); at the sink it pushes the path's bottleneck,
   and at a dead end it retreats one arc and moves the parent's
   current arc on. This is the classic recursive search unrolled, so
   the augmentations come in the same order. *)
let blocking_flow t ~s ~t:sink flow =
  let stack = t.queue and level = t.level and cap = t.cap in
  Array.blit t.first 0 t.iter 0 t.n;
  let flow = ref flow in
  let depth = ref 0 and u = ref s and searching = ref true in
  while !searching do
    if !u = sink then begin
      let d = ref infinity in
      for i = 0 to !depth - 1 do
        d := Float.min !d cap.(stack.(i))
      done;
      for i = 0 to !depth - 1 do
        let a = stack.(i) in
        cap.(a) <- cap.(a) -. !d;
        cap.(a lxor 1) <- cap.(a lxor 1) +. !d
      done;
      flow := !flow +. !d;
      depth := 0;
      u := s
    end
    else begin
      let a = t.iter.(!u) in
      if a < 0 then begin
        if !depth = 0 then searching := false
        else begin
          decr depth;
          let back = stack.(!depth) in
          u := t.dst.(back lxor 1);
          t.iter.(!u) <- t.next.(back)
        end
      end
      else begin
        let v = t.dst.(a) in
        if cap.(a) > eps && level.(v) = level.(!u) + 1 then begin
          stack.(!depth) <- a;
          incr depth;
          u := v
        end
        else t.iter.(!u) <- t.next.(a)
      end
    end
  done;
  !flow

let max_flow t ~s ~t:sink =
  let flow = ref 0.0 in
  label_levels t ~s;
  while t.level.(sink) <> -1 do
    flow := blocking_flow t ~s ~t:sink !flow;
    label_levels t ~s
  done;
  !flow

let min_cut_side t ~s =
  label_levels t ~s;
  Array.init t.n (fun v -> t.level.(v) <> -1)
