open Pnp_engine
open Pnp_xkern

type t = {
  plat : Platform.t;
  pool : Mpool.t;
  sess : Tcp.session;
  inbox : Msg.t Queue.t;
  mutable fin : bool;
  mutable waiter : (int -> unit) option; (* a thread blocked in recv *)
}

let wake t =
  match t.waiter with
  | Some resume ->
    t.waiter <- None;
    resume (Sim.now t.plat.Platform.sim)
  | None -> ()

(* Wrap an established session: installs its receiver and FIN handler,
   so nothing may call [Tcp.set_receiver] on it afterwards. *)
let of_session plat pool sess =
  let t =
    {
      plat;
      pool;
      sess;
      inbox = Queue.create ();
      fin = false;
      waiter = None;
    }
  in
  Tcp.set_receiver sess (fun msg ->
      Queue.push msg t.inbox;
      wake t);
  Tcp.set_fin_handler sess (fun () ->
      t.fin <- true;
      wake t);
  t

let connect plat pool tcp ~local_port ~remote_addr ~remote_port =
  let sess = Tcp.connect tcp ~local_port ~remote_addr ~remote_port in
  of_session plat pool sess

let send t msg = Tcp.send t.sess msg

(* Admission control at the application boundary: park for mnode headroom
   BEFORE allocating the message.  Without this a storm of senders can
   exhaust the pool with freshly built messages that [Tcp.send]'s own
   admission check never gets to see.  No-op on unbounded pools. *)
let send_string t s =
  Mpool.await_headroom t.pool;
  send t (Msg.of_string t.pool s)

let rec recv t =
  if not (Queue.is_empty t.inbox) then Some (Queue.pop t.inbox)
  else if t.fin then None
  else begin
    Sim.suspend t.plat.Platform.sim (fun resume ->
        if t.waiter <> None then failwith "Socket.recv: concurrent receivers";
        t.waiter <- Some resume);
    recv t
  end

let recv_string t =
  match recv t with
  | None -> None
  | Some m ->
    let s = Msg.to_string m in
    Msg.destroy m;
    Some s

let recv_exactly t n =
  let buf = Buffer.create n in
  let rec go () =
    if Buffer.length buf >= n then Some (Buffer.contents buf)
    else
      match recv_string t with
      | None -> None
      | Some s ->
        Buffer.add_string buf s;
        go ()
  in
  (* Chunk boundaries may not line up with [n]; carry any excess back into
     the inbox as a fresh message. *)
  match go () with
  | None -> None
  | Some s when String.length s = n -> Some s
  | Some s ->
    let keep = String.sub s 0 n in
    let rest = String.sub s n (String.length s - n) in
    let m = Msg.of_string t.pool rest in
    (* Put the remainder at the front: drain the queue behind it. *)
    let tail = Queue.copy t.inbox in
    Queue.clear t.inbox;
    Queue.push m t.inbox;
    Queue.transfer tail t.inbox;
    Some keep

let close t = Tcp.close t.sess
let session t = t.sess

module Listener = struct
  type socket = t

  type t = {
    plat : Platform.t;
    accepted : socket Queue.t;
    mutable waiter : (int -> unit) option;
  }

  let listen plat pool tcp ~port =
    let t = { plat; accepted = Queue.create (); waiter = None } in
    Tcp.listen tcp ~local_port:port ~accept:(fun sess ->
        Queue.push (of_session plat pool sess) t.accepted;
        match t.waiter with
        | Some resume ->
          t.waiter <- None;
          resume (Sim.now plat.Platform.sim)
        | None -> ());
    t

  let rec accept t =
    if not (Queue.is_empty t.accepted) then Queue.pop t.accepted
    else begin
      Sim.suspend t.plat.Platform.sim (fun resume ->
          if t.waiter <> None then failwith "Socket.Listener.accept: concurrent accepts";
          t.waiter <- Some resume);
      accept t
    end
end
