(** Model of DeathStarBench's Social Network (§6.1.2): a microservice DAG
    behind an NGINX-like frontend, composed with the socfb-Reed98 Facebook
    graph (962 users, 18.8K follow edges) and driven by an open-loop
    wrk2-style client.

    Requests mix a read-home-timeline flow and a compose-post flow; the
    compose path fans out from ComposePostService to the text, id, user,
    media, storage and timeline services, with TextService further calling
    url-shorten and user-mention — giving the probabilistic call graph of
    Fig. 3. [TextService] (post text handling) and [SocialGraphService]
    (follow relationships) are the two tiers whose resource profiles Fig. 5
    reports. *)

val spec : unit -> Ditto_app.Spec.t
(** The 22-service topology: twelve application services plus their
    memcached/mongodb-style cache and store backends (DeathStarBench pairs
    each stateful service with both). *)


val workload : Ditto_loadgen.Workload.t
val loads : float * float * float
val fig6_qps : float list
(** The Fig. 6 sweep: 200..2000 QPS. *)
