(** Strict RFC 8259 JSON parsing onto {!Event_log.json}, plus the field
    accessors the wire protocol and the benchmark harness share.

    One representation round-trips everything: the event log's renderer
    writes frames and event lines; this parser reads them back. Numbers without a fraction or exponent that fit in
    an [int] parse as [Int]; trailing garbage after the document is an
    error (a JSONL line holds exactly one value). *)

type t = Event_log.json

val parse : string -> (t, string) result
val to_string : t -> string

val member : string -> t -> t option
(** Object field lookup ([None] on missing field or non-object). *)

val string_field : string -> t -> string option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option
val list_field : string -> t -> t list option
