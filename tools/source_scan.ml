(* Lexing shared by the source lints: comments and string literals blanked
   out, and dotted identifier tokens. *)

let is_ident_char c =
  (c >= 'A' && c <= 'Z')
  || (c >= 'a' && c <= 'z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Blank out comments (nesting) and string literals, preserving line
   structure so reported line numbers stay right. *)
let strip source =
  let b = Buffer.create (String.length source) in
  let n = String.length source in
  let depth = ref 0 and in_string = ref false in
  let i = ref 0 in
  while !i < n do
    let c = source.[!i] in
    if !in_string then begin
      if c = '\\' && !i + 1 < n then begin
        Buffer.add_string b "  ";
        incr i
      end
      else begin
        if c = '"' then in_string := false;
        Buffer.add_char b (if c = '\n' then '\n' else ' ')
      end
    end
    else if !depth > 0 then begin
      if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
        incr depth;
        Buffer.add_string b "  ";
        incr i
      end
      else if c = '*' && !i + 1 < n && source.[!i + 1] = ')' then begin
        decr depth;
        Buffer.add_string b "  ";
        incr i
      end
      else Buffer.add_char b (if c = '\n' then '\n' else ' ')
    end
    else if c = '(' && !i + 1 < n && source.[!i + 1] = '*' then begin
      depth := 1;
      Buffer.add_string b "  ";
      incr i
    end
    else if c = '"' then begin
      in_string := true;
      Buffer.add_char b ' '
    end
    else Buffer.add_char b c;
    incr i
  done;
  Buffer.contents b

(* Dotted identifier tokens of one (already stripped) line, each with the
   column it starts at. *)
let located_tokens line =
  let toks = ref [] in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    if is_ident_char line.[!i] then begin
      let start = !i in
      while
        !i < n
        && (is_ident_char line.[!i]
           || (line.[!i] = '.' && !i + 1 < n && is_ident_char line.[!i + 1]))
      do
        incr i
      done;
      toks := (start, String.sub line start (!i - start)) :: !toks
    end
    else incr i
  done;
  List.rev !toks

let tokens_of_line line = List.map snd (located_tokens line)
