open Ditto_sim

type msg = { bytes : int; err : bool; arrived : float; meta : int }
type verdict = Deliver | Delay of float | Drop

(* [watchers] are processes blocked on this endpoint directly (recv_msg). An
   endpoint added to an epoll records it as [owner]; readiness waiters then
   park on the epoll, and the epoll counts the messages queued across its
   endpoints in [queued], kept current on every delivery and every take. *)
type endpoint = {
  engine : Engine.t;
  inbox : msg Queue.t;
  mutable watchers : unit Engine.waker list;
  mutable owner : poller option;
  nic : Nic.t;
  latency : float;
  mutable peer : endpoint option;
  mutable disruptor : (bytes:int -> verdict) option;
}

and poller = {
  mutable endpoints : endpoint list;
  mutable waiters : unit Engine.waker list;
  mutable queued : int;
}

let make engine nic latency =
  {
    engine;
    inbox = Queue.create ();
    watchers = [];
    owner = None;
    nic;
    latency;
    peer = None;
    disruptor = None;
  }

let pair engine ~a_nic ~b_nic ~latency =
  let a = make engine a_nic latency and b = make engine b_nic latency in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let set_disruptor ep f = ep.disruptor <- f

let wake_all ws = List.iter (fun w -> Engine.wake w ()) ws

(* Direct waiters first, then the epoll's: no process blocks in [recv_msg] on
   an endpoint an epoll owns, so at most one of the two lists holds a live
   waiter, and each is newest-first. *)
let deliver ep msg =
  Queue.push msg ep.inbox;
  let ws = ep.watchers in
  ep.watchers <- [];
  wake_all ws;
  match ep.owner with
  | None -> ()
  | Some p ->
      p.queued <- p.queued + 1;
      let ws = p.waiters in
      p.waiters <- [];
      wake_all ws

let take ep =
  match Queue.take_opt ep.inbox with
  | None -> None
  | Some _ as m ->
      (match ep.owner with Some p -> p.queued <- p.queued - 1 | None -> ());
      m

let send ?(err = false) ?(meta = 0) ep ~bytes =
  match ep.peer with
  | None -> invalid_arg "Socket.send: unconnected"
  | Some peer -> (
      Nic.transmit ep.nic ~bytes;
      let verdict = match ep.disruptor with None -> Deliver | Some f -> f ~bytes in
      match verdict with
      | Drop -> ()
      | Deliver | Delay _ ->
          let extra = match verdict with Delay d -> d | _ -> 0.0 in
          let deliver_at = Engine.now ep.engine +. ep.latency +. extra in
          Engine.schedule ep.engine deliver_at (fun () ->
              Nic.note_received peer.nic ~bytes;
              deliver peer { bytes; err; arrived = deliver_at; meta }))

let rec recv_msg ep =
  match take ep with
  | Some msg -> msg
  | None ->
      Engine.suspend (fun w -> ep.watchers <- w :: ep.watchers);
      recv_msg ep

let try_recv_msg ep = take ep

let recv_msg_timeout ep ~timeout =
  let deadline = Engine.now ep.engine +. timeout in
  let rec go () =
    match take ep with
    | Some msg -> Some msg
    | None ->
        let left = deadline -. Engine.now ep.engine in
        if left <= 0.0 then None
        else (
          match Engine.suspend_timeout left (fun w -> ep.watchers <- w :: ep.watchers) with
          | None -> None
          | Some () -> go ())
  in
  go ()

let pending ep = Queue.length ep.inbox

module Epoll = struct
  type t = poller

  let create () = { endpoints = []; waiters = []; queued = 0 }

  (* A connection can be added while a worker is already parked in [wait]:
     if it is already readable, the parked waiters wake now; otherwise the
     next delivery on it wakes them through [owner]. *)
  let add t ep =
    if Option.is_some ep.owner then
      invalid_arg "Socket.Epoll.add: endpoint already belongs to an epoll";
    ep.owner <- Some t;
    t.endpoints <- ep :: t.endpoints;
    let n = Queue.length ep.inbox in
    if n > 0 then begin
      t.queued <- t.queued + n;
      let ws = t.waiters in
      t.waiters <- [];
      wake_all ws
    end

  let ready t =
    if t.queued = 0 then [] else List.filter (fun ep -> not (Queue.is_empty ep.inbox)) t.endpoints

  let pending_total t = t.queued
  let endpoints t = t.endpoints

  let register t w = t.waiters <- w :: List.filter (fun w' -> not (Engine.is_woken w')) t.waiters

  let rec wait ?timeout t =
    match ready t with
    | _ :: _ as rs -> rs
    | [] -> (
        match timeout with
        | None ->
            Engine.suspend (fun w -> register t w);
            wait t
        (* timeout:0. is a poll: report emptiness without suspending (no
           engine effect is performed, so this is callable anywhere). *)
        | Some d when d <= 0.0 -> []
        | Some d -> (
            match Engine.suspend_timeout d (fun w -> register t w) with
            | None -> []
            | Some () -> wait ?timeout t))
end
