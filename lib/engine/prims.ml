open Rt

let to_int = Values.to_int
let of_int = Values.of_int

let check_int who v =
  match v with Fixnum -> to_int v | _ -> Values.type_error who "fixnum" v

(* Numbers are the fixnum immediates and the [Flo] values: a fixnum
   promotes to a flonum on contact, and nothing is allocated beyond a
   flonum result. *)
let num_float who v =
  match v with
  | Fixnum -> float_of_int (to_int v)
  | Flo f -> f
  | _ -> Values.type_error who "number" v

let check_num who v =
  match v with Fixnum | Flo _ -> v | _ -> Values.type_error who "number" v

let check_str who v =
  match v with Str s -> s | _ -> Values.type_error who "string" v

let check_sym who v =
  match v with Sym s -> s | _ -> Values.type_error who "symbol" v

let check_char who v =
  match v with Char c -> c | _ -> Values.type_error who "character" v

let check_vec who v =
  match v with Vec a -> a | _ -> Values.type_error who "vector" v

let check_tbl who v =
  match v with Tbl t -> t | _ -> Values.type_error who "hashtable" v

(* Hashtable keys must hash and compare consistently with eqv?: restrict
   them to immediates (structural = physical for interned symbols) and
   key a flonum by its bits (see [Rt.hkey]). *)
let check_hkey who v =
  match v with
  | Fixnum | Sym _ | Char _ | Bool _ | Nil _ -> Key v
  | Flo x -> Flo_key (Int64.bits_of_float x)
  | _ ->
      Values.err
        (who ^ ": hashtable keys must be eqv-comparable immediates")
        [ v ]

let of_hkey = function Key v -> v | Flo_key b -> Flo (Int64.float_of_bits b)

let check_procedure who v =
  match v with
  | Closure _ | Prim _ | Cont _ | Hcont _ | Ofun _ -> v
  | _ -> Values.type_error who "procedure" v

let arity_error who = Values.err (who ^ ": wrong number of arguments") []

(* Argument-count helpers ------------------------------------------------ *)

let a3 who f args =
  match args with [| x; y; z |] -> f x y z | _ -> arity_error who
  [@@inline]

let bool_of = Values.of_bool

(* One step of a numeric fold. *)
let arith who fi ff a b =
  match (a, b) with
  | Fixnum, Fixnum -> of_int (fi (to_int a) (to_int b))
  | Flo x, Flo y -> Flo (ff x y)
  | _ ->
      let x = num_float who a in
      let y = num_float who b in
      Flo (ff x y)

(* Numeric fold over the arguments.  Callers match the two-fixnum case
   before calling this. *)
let num_fold who init fi ff args =
  match args with
  | [||] -> of_int init
  | [| a; b |] -> arith who fi ff a b
  | _ ->
      let acc = ref (check_num who args.(0)) in
      for i = 1 to Array.length args - 1 do
        acc := arith who fi ff !acc args.(i)
      done;
      !acc

(* IEEE comparison of two numbers, so every comparison with a NaN is
   false.  The right operand is type-checked first. *)
let num_test who fi ff a b =
  match (a, b) with
  | Fixnum, Fixnum -> fi (to_int a) (to_int b)
  | Flo x, Flo y -> ff x y
  | _ ->
      let y = num_float who b in
      let x = num_float who a in
      ff x y

(* Every argument is type-checked, even after a false comparison. *)
let num_compare who fi ff args =
  if Array.length args < 2 then arity_error who;
  let ok = ref true in
  for i = 0 to Array.length args - 2 do
    if not (num_test who fi ff args.(i) args.(i + 1)) then ok := false
  done;
  bool_of !ok

(* The sign tests compare against zero with the IEEE operators. *)
let num_sign who fi ff a =
  match a with
  | Fixnum -> bool_of (fi (to_int a) 0)
  | Flo f -> bool_of (ff f 0.)
  | _ -> Values.type_error who "number" a

(* The rounding primitives: a fixnum is already integral. *)
let integral who ff a =
  match a with
  | Fixnum -> a
  | Flo f -> Flo (ff f)
  | v -> Values.type_error who "number" v

(* A size the heap cannot supply is a Scheme error, not a crash. *)
let alloc who n make =
  try make n
  with Out_of_memory | Invalid_argument _ ->
    Values.err (who ^ ": size too large to allocate") [ of_int n ]

(* List helpers ----------------------------------------------------------- *)

(* The car/cdr family reads the pair's fields straight off its one
   block. *)
let car who v =
  match v with Pair { car; _ } -> car | _ -> Values.type_error who "pair" v

let cdr who v =
  match v with Pair { cdr; _ } -> cdr | _ -> Values.type_error who "pair" v

let rec list_tail who v n =
  if n = 0 then v
  else
    match v with
    | Pair { cdr; _ } -> list_tail who cdr (n - 1)
    | _ -> Values.err (who ^ ": index out of range") [ v ]

(* Every primitive that walks a list to its end first measures it with
   [Values.list_length], which ends on a cycle too, and raises its
   "expected proper list" error with the whole argument unless it is a
   proper list; the walks below then run only over proper lists, so
   each ends.  A primitive is one engine step, so neither fuel nor the
   timer could stop one that looped. *)
let proper_length who v =
  let n = Values.list_length v in
  if n < 0 then Values.type_error who "proper list" v else n

(* [apply]'s last argument, the list it spreads, is measured the same
   way on every backend. *)
let spread_length v =
  let n = Values.list_length v in
  if n < 0 then Values.err "apply: expected a proper list" [ v ] else n

(* The list builders below allocate only the pairs of their result: no
   OCaml list in between and no closure per call. *)

(* The elements of the proper list [v], reversed, in front of [tail]. *)
let rec rev_onto tail v =
  match v with
  | Pair { car; cdr } -> rev_onto (Values.cons car tail) cdr
  | _ -> tail

(* Copy the pairs of the proper list [v] after [last], the copy's last
   pair so far; the copy ends in [tail].  Built front to back, so each
   element costs one pair and one store. *)
let rec copy_after tail last v =
  match v with
  | Pair { car; cdr } ->
      let p = Values.cons car tail in
      (match last with Pair l -> l.cdr <- p | _ -> ());
      copy_after tail p cdr
  | _ -> ()

let append2 who a b =
  ignore (proper_length who a);
  match a with
  | Pair { car; cdr } ->
      let head = Values.cons car b in
      copy_after b head cdr;
      head
  | _ -> b

(* [a.(0 .. i)] in front of [tail]. *)
let rec array_onto a i tail =
  if i < 0 then tail else array_onto a (i - 1) (Values.cons a.(i) tail)

let array_to_list a = array_onto a (Array.length a - 1) nil

(* The characters [b.(0 .. i)] in front of [tail]. *)
let rec bytes_onto b i tail =
  if i < 0 then tail
  else bytes_onto b (i - 1) (Values.cons (Char (Bytes.get b i)) tail)

(* Store the elements of [v] from index [i] on. *)
let rec fill_vector a i v =
  match v with
  | Pair { car; cdr } ->
      a.(i) <- car;
      fill_vector a (i + 1) cdr
  | _ -> ()

let rec fill_string b i v =
  match v with
  | Pair { car; cdr } ->
      Bytes.set b i (check_char "list->string" car);
      fill_string b (i + 1) cdr
  | _ -> ()

let cons_key k _ acc = Values.cons (of_hkey k) acc
let cons_value _ v acc = Values.cons v acc
let cons_entry k v acc = Values.cons (Values.cons (of_hkey k) v) acc

(* The searches return [#f] at the end of the proper list [v]. *)
let rec assoc_gen eqf key v =
  match v with
  | Pair { car = Pair { car = k; _ } as hit; cdr } ->
      if eqf key k then hit else assoc_gen eqf key cdr
  | Pair { cdr; _ } -> assoc_gen eqf key cdr
  | _ -> Values.v_false

let rec member_gen eqf key v =
  match v with
  | Pair { car; cdr } -> if eqf key car then v else member_gen eqf key cdr
  | _ -> Values.v_false

let search who gen eqf key v =
  ignore (proper_length who v);
  gen eqf key v

(* ------------------------------------------------------------------ *)
(* The table                                                           *)
(* ------------------------------------------------------------------ *)

let entries name parity fn fn1 fn2 =
  (name, { pname = name; parity; pfn = Pure { fn; fn1; fn2 } })

(* A fixed-arity primitive is written once, as its direct entry; the
   array entry that [apply] and the generic call paths use is derived
   from it and adds only the argument-count match.  The direct entry of
   the other arity is never reached (every caller checks the arity
   first), so it just reports the error. *)
let pure1 name f =
  let fn = function [| x |] -> f x | _ -> arity_error name in
  entries name (Exactly 1) fn f (fun _ _ -> arity_error name)

let pure2 name f =
  let fn = function [| x; y |] -> f x y | _ -> arity_error name in
  entries name (Exactly 2) fn (fun _ -> arity_error name) f

(* Any other primitive is written over its argument array, and its
   direct entries build one unless [fn1]/[fn2] are given.  Every
   primitive a loop calls at one or two arguments gives them, so the
   fused call paths allocate no array. *)
let pure ?fn1 ?fn2 name parity fn =
  let fn1 = match fn1 with Some f -> f | None -> fun x -> fn [| x |] in
  let fn2 = match fn2 with Some f -> f | None -> fun x y -> fn [| x; y |] in
  entries name parity fn fn1 fn2

let special name arity s =
  (name, { pname = name; parity = arity; pfn = Special s })

(* ------------------------------------------------------------------ *)
(* Native dynamic-wind machinery                                       *)
(* ------------------------------------------------------------------ *)

(* Hidden code objects driving the native winder protocol.  Neither is
   ever produced by the compiler: their interned return addresses are
   pushed by the VM dispatch loops when a [%dynamic-wind] extent or a
   wind trampoline calls one of the guard thunks, so that "the thunk
   returned" resumes these few instructions, which immediately tail-call
   back into the special with a state argument.  This keeps the whole
   protocol re-entrant through capture: a continuation captured inside
   a [before]/[after] thunk snapshots ordinary frames whose return
   addresses point here, and reinstating it re-runs the tail-call with
   the state slots it finds in the restored frame.

   [%dynamic-wind] frame layout (fp-relative):
     0 ret | 1 prim | 2 before | 3 thunk | 4 after | 5 state | 6 saved
   with the guard/thunk call area at 7 ([ret][callee]).  The entry call
   carries 3 arguments; resumptions tail-call with 5, which is how the
   special's handler distinguishes the states.  States: 1 = before
   returned, 2 = thunk returned ([saved] holds its value), 3 = after
   returned. *)
let dw_resume_code =
  Bytecode.code ~name:"%dynamic-wind" ~arity:(At_least 0) ~frame_words:11
    [|
      (* pc 0: before returned *)
      Const_push (of_int 1, 5);
      Tail_call { disp = 0; nargs = 5 };
      (* pc 2: thunk returned; stash its value *)
      Local_set 6;
      Const_push (of_int 2, 5);
      Tail_call { disp = 0; nargs = 5 };
      (* pc 5: after returned *)
      Const_push (of_int 3, 5);
      Tail_call { disp = 0; nargs = 5 };
    |]

let dw_ret_before = Retaddr { rcode = dw_resume_code; rpc = 0; rdisp = 7 }
let dw_ret_thunk = Retaddr { rcode = dw_resume_code; rpc = 2; rdisp = 7 }
let dw_ret_after = Retaddr { rcode = dw_resume_code; rpc = 5; rdisp = 7 }

(* Wind-trampoline frame layout (fp-relative):
     0 ret | 1 %wind | 2 k | 3 payload | 4 target winders | 5 pending
   with the guard call area at 6.  [pending] is [Bool false] or
   [WindersV w]: a rewind stores the chain to commit *after* the before
   thunk returns (the prelude's ordering), an unwind commits eagerly
   before running the after thunk.  Every guard return tail-calls back
   into [Sp_wind] for the next step; when the machine's chain reaches
   the target the trampoline finally reinstates [k] with [payload]. *)
let wind_resume_code =
  Bytecode.code ~name:"%wind" ~arity:(At_least 0) ~frame_words:10
    [| Tail_call { disp = 0; nargs = 4 } |]

let wind_ret = Retaddr { rcode = wind_resume_code; rpc = 0; rdisp = 6 }

(* [%wind] is deliberately absent from the global table: it is reachable
   only through frames the machines build themselves. *)
let wind_prim = { pname = "%wind"; parity = At_least 4; pfn = Special Sp_wind }

let dw_prim =
  { pname = "%dynamic-wind"; parity = At_least 3; pfn = Special Sp_dynamic_wind }

(* Every prim below is a module-level, process-shared value: the
   inline-cache guards compiled into shared code (the prelude image)
   compare [ps_guard == gval] with physical equality, so the value bound
   to [+] must be the same record in every session.  The few prims that
   touch per-machine state — the output buffer and the preemption
   timer — reach the *running* machine through {!Machine_hooks}, the
   per-domain hook record each backend's [run] installs. *)
(* (error who msg irritant ...) or (error msg irritant ...) *)
let raise_error args =
  match args with
  | [| m |] -> raise (Scheme_error (Values.display_string m, []))
  | _ -> (
      match args.(0) with
      | Sym who ->
          raise
            (Scheme_error
               ( who ^ ": " ^ Values.display_string args.(1),
                 Array.to_list (Array.sub args 2 (Array.length args - 2)) ))
      | m ->
          raise
            (Scheme_error
               ( Values.display_string m,
                 Array.to_list (Array.sub args 1 (Array.length args - 1)) )))

let hooks_out () = (Machine_hooks.current ()).Machine_hooks.out ()

let the_prims : (string * prim) list =
  let display_v v =
    Buffer.add_string (hooks_out ()) (Values.display_string v);
    void
  in
  let write_v v =
    Buffer.add_string (hooks_out ()) (Values.write_string v);
    void
  in
  [
    (* -- arithmetic ------------------------------------------------- *)
    (* The two-argument entries test the two-fixnum case inline, then go
       to [arith]/[num_test]. *)
    (let add a b =
       match (a, b) with
       | Fixnum, Fixnum -> of_int (to_int a + to_int b)
       | _ -> arith "+" ( + ) ( +. ) a b
     in
     pure "+" (At_least 0) ~fn1:(check_num "+") ~fn2:add (fun args ->
         match args with
         | [| a; b |] -> add a b
         | _ -> num_fold "+" 0 ( + ) ( +. ) args));
    (let mul a b =
       match (a, b) with
       | Fixnum, Fixnum -> of_int (to_int a * to_int b)
       | _ -> arith "*" ( * ) ( *. ) a b
     in
     pure "*" (At_least 0) ~fn1:(check_num "*") ~fn2:mul (fun args ->
         match args with
         | [| a; b |] -> mul a b
         | _ -> num_fold "*" 1 ( * ) ( *. ) args));
    (let neg v =
       match v with
       | Fixnum -> of_int (-to_int v)
       | Flo f -> Flo (-.f)
       | _ -> Values.type_error "-" "number" v
     and sub a b =
       match (a, b) with
       | Fixnum, Fixnum -> of_int (to_int a - to_int b)
       | _ -> arith "-" ( - ) ( -. ) a b
     in
     pure "-" (At_least 1) ~fn1:neg ~fn2:sub (fun args ->
         match args with
         | [| a |] -> neg a
         | [| a; b |] -> sub a b
         | _ -> num_fold "-" 0 ( - ) ( -. ) args));
    (* exact when it divides evenly, inexact otherwise (no rationals) *)
    (let div a b =
       match (a, b) with
       | Fixnum, Fixnum when to_int b <> 0 && to_int a mod to_int b = 0 ->
           of_int (to_int a / to_int b)
       | (Fixnum | Flo _), Fixnum when to_int b = 0 ->
           Values.err "/: division by zero" []
       | _ ->
           let x = num_float "/" a in
           let y = num_float "/" b in
           Flo (x /. y)
     in
     pure "/" (At_least 1) ~fn1:(div (of_int 1)) ~fn2:div (fun args ->
         match args with
         | [| a |] -> div (of_int 1) a
         | _ ->
             let acc = ref (check_num "/" args.(0)) in
             for i = 1 to Array.length args - 1 do
               acc := div !acc args.(i)
             done;
             !acc));
    pure2 "quotient" (fun a b ->
        let b = check_int "quotient" b in
        if b = 0 then Values.err "quotient: division by zero" [];
        of_int (check_int "quotient" a / b));
    pure2 "remainder" (fun a b ->
        let b = check_int "remainder" b in
        if b = 0 then Values.err "remainder: division by zero" [];
        of_int (Int.rem (check_int "remainder" a) b));
    pure2 "modulo" (fun a b ->
        let b = check_int "modulo" b in
        if b = 0 then Values.err "modulo: division by zero" [];
        let r = Int.rem (check_int "modulo" a) b in
        of_int (if (r < 0) <> (b < 0) && r <> 0 then r + b else r));
    pure1 "abs" (fun a ->
        match a with
        | Fixnum -> if to_int a >= 0 then a else of_int (-to_int a)
        | Flo f -> Flo (Float.abs f)
        | v -> Values.type_error "abs" "number" v);
    pure "min" (At_least 1) ~fn1:(check_num "min")
      ~fn2:(arith "min" Int.min Float.min)
      (num_fold "min" 0 Int.min Float.min);
    pure "max" (At_least 1) ~fn1:(check_num "max")
      ~fn2:(arith "max" Int.max Float.max)
      (num_fold "max" 0 Int.max Float.max);
    (let eq a b =
       match (a, b) with
       | Fixnum, Fixnum -> bool_of (a == b)
       | _ -> bool_of (num_test "=" ( = ) ( = ) a b)
     in
     pure "=" (At_least 2) ~fn2:eq (fun args ->
         match args with
         | [| a; b |] -> eq a b
         | _ -> num_compare "=" ( = ) ( = ) args));
    (let lt a b =
       match (a, b) with
       | Fixnum, Fixnum -> bool_of (to_int a < to_int b)
       | _ -> bool_of (num_test "<" ( < ) ( < ) a b)
     in
     pure "<" (At_least 2) ~fn2:lt (fun args ->
         match args with
         | [| a; b |] -> lt a b
         | _ -> num_compare "<" ( < ) ( < ) args));
    (let gt a b =
       match (a, b) with
       | Fixnum, Fixnum -> bool_of (to_int a > to_int b)
       | _ -> bool_of (num_test ">" ( > ) ( > ) a b)
     in
     pure ">" (At_least 2) ~fn2:gt (fun args ->
         match args with
         | [| a; b |] -> gt a b
         | _ -> num_compare ">" ( > ) ( > ) args));
    (let le a b =
       match (a, b) with
       | Fixnum, Fixnum -> bool_of (to_int a <= to_int b)
       | _ -> bool_of (num_test "<=" ( <= ) ( <= ) a b)
     in
     pure "<=" (At_least 2) ~fn2:le (fun args ->
         match args with
         | [| a; b |] -> le a b
         | _ -> num_compare "<=" ( <= ) ( <= ) args));
    (let ge a b =
       match (a, b) with
       | Fixnum, Fixnum -> bool_of (to_int a >= to_int b)
       | _ -> bool_of (num_test ">=" ( >= ) ( >= ) a b)
     in
     pure ">=" (At_least 2) ~fn2:ge (fun args ->
         match args with
         | [| a; b |] -> ge a b
         | _ -> num_compare ">=" ( >= ) ( >= ) args));
    (* -- flonum-specific ---------------------------------------------- *)
    pure1 "exact->inexact" (fun a ->
        match a with
        | Fixnum -> Flo (float_of_int (to_int a))
        | Flo _ -> a
        | v -> Values.type_error "exact->inexact" "number" v);
    (* [int_of_float] is undefined outside [min_int, max_int]: the
       fixnums are exactly the integral flonums in [-2^62, 2^62). *)
    (let limit = Float.ldexp 1. 62 in
     pure1 "inexact->exact" (fun a ->
         match a with
         | Fixnum -> a
         | Flo f ->
             if not (Float.is_integer f) then
               Values.err "inexact->exact: not an integer" [ a ]
             else if f < -.limit || f >= limit then
               Values.err "inexact->exact: out of fixnum range" [ a ]
             else of_int (int_of_float f)
         | v -> Values.type_error "inexact->exact" "number" v));
    pure1 "exact?" (fun a ->
        bool_of (match check_num "exact?" a with Fixnum -> true | _ -> false));
    pure1 "inexact?" (fun a ->
        bool_of (match check_num "inexact?" a with Flo _ -> true | _ -> false));
    pure1 "real?" (fun a ->
        bool_of (match a with Fixnum | Flo _ -> true | _ -> false));
    pure1 "floor" (integral "floor" Float.floor);
    pure1 "ceiling" (integral "ceiling" Float.ceil);
    pure1 "truncate" (integral "truncate" Float.trunc);
    pure1 "round" (integral "round" (fun f ->
        (* round-to-even *)
        let r = Float.round f in
        if Float.abs (f -. Float.trunc f) = 0.5 then
          if Float.rem r 2. = 0. then r else r -. Float.copy_sign 1. f
        else r));
    pure1 "sqrt" (fun a ->
        match a with
        | Fixnum when to_int a >= 0 ->
            let n = to_int a in
            let r = int_of_float (Float.sqrt (float_of_int n)) in
            if r * r = n then of_int r
            else Flo (Float.sqrt (float_of_int n))
        | _ -> Flo (Float.sqrt (num_float "sqrt" a)));
    pure2 "expt" (fun a b ->
        match (a, b) with
        | Fixnum, Fixnum when to_int b >= 0 ->
            let rec go acc b e =
              if e = 0 then acc
              else go (if e land 1 = 1 then acc * b else acc) (b * b)
                (e lsr 1)
            in
            of_int (go 1 (to_int a) (to_int b))
        | _ ->
            let x = num_float "expt" a in
            let y = num_float "expt" b in
            Flo (Float.pow x y));
    pure1 "exp" (fun a -> Flo (Float.exp (num_float "exp" a)));
    pure1 "log" (fun a -> Flo (Float.log (num_float "log" a)));
    pure1 "sin" (fun a -> Flo (Float.sin (num_float "sin" a)));
    pure1 "cos" (fun a -> Flo (Float.cos (num_float "cos" a)));
    (let atan1 a = Flo (Float.atan (num_float "atan" a))
     and atan2 a b =
       let y = num_float "atan" b in
       let x = num_float "atan" a in
       Flo (Float.atan2 x y)
     in
     pure "atan" (At_least 1) ~fn1:atan1 ~fn2:atan2 (fun args ->
         match args with
         | [| a |] -> atan1 a
         | [| a; b |] -> atan2 a b
         | _ -> arity_error "atan"));
    pure1 "zero?" (num_sign "zero?" ( = ) ( = ));
    pure1 "positive?" (num_sign "positive?" ( > ) ( > ));
    pure1 "negative?" (num_sign "negative?" ( < ) ( < ));
    pure1 "even?" (fun a -> bool_of (check_int "even?" a land 1 = 0));
    pure1 "odd?" (fun a -> bool_of (check_int "odd?" a land 1 = 1));
    pure1 "1+" (fun a -> of_int (check_int "1+" a + 1));
    pure1 "1-" (fun a -> of_int (check_int "1-" a - 1));
    (* -- predicates -------------------------------------------------- *)
    pure2 "eq?" (fun a b -> bool_of (Values.eq a b));
    pure2 "eqv?" (fun a b -> bool_of (Values.eqv a b));
    pure2 "equal?" (fun a b -> bool_of (Values.equal a b));
    pure1 "not" (fun a -> bool_of (not (Values.is_truthy a)));
    pure1 "null?" (fun a -> bool_of (match a with Nil _ -> true | _ -> false));
    pure1 "list?" (fun a -> bool_of (Values.list_length a >= 0));
    pure1 "pair?" (fun a -> bool_of (match a with Pair _ -> true | _ -> false));
    pure1 "symbol?" (fun a -> bool_of (match a with Sym _ -> true | _ -> false));
    pure1 "number?" (fun a ->
        bool_of (match a with Fixnum | Flo _ -> true | _ -> false));
    pure1 "integer?" (fun a -> bool_of (match a with Fixnum -> true | _ -> false));
    pure1 "string?" (fun a -> bool_of (match a with Str _ -> true | _ -> false));
    pure1 "char?" (fun a -> bool_of (match a with Char _ -> true | _ -> false));
    pure1 "boolean?" (fun a ->
        bool_of (match a with Bool _ -> true | _ -> false));
    pure1 "vector?" (fun a -> bool_of (match a with Vec _ -> true | _ -> false));
    pure1 "procedure?" (fun a ->
        bool_of
          (match a with Closure _ | Prim _ | Cont _ | Hcont _ | Ofun _ -> true | _ -> false));
    pure1 "eof-object?" (fun a -> bool_of (match a with Eof _ -> true | _ -> false));
    (* -- pairs and lists --------------------------------------------- *)
    pure2 "cons" Values.cons;
    pure1 "car" (fun v -> car "car" v);
    pure1 "cdr" (fun v -> cdr "cdr" v);
    pure1 "caar" (fun v -> car "caar" (car "caar" v));
    pure1 "cadr" (fun v -> car "cadr" (cdr "cadr" v));
    pure1 "cdar" (fun v -> cdr "cdar" (car "cdar" v));
    pure1 "cddr" (fun v -> cdr "cddr" (cdr "cddr" v));
    pure1 "caddr" (fun v -> car "caddr" (cdr "caddr" (cdr "caddr" v)));
    pure2 "set-car!" (fun p v ->
        match p with
        | Pair r ->
            r.car <- v;
            void
        | _ -> Values.type_error "set-car!" "pair" p);
    pure2 "set-cdr!" (fun p v ->
        match p with
        | Pair r ->
            r.cdr <- v;
            void
        | _ -> Values.type_error "set-cdr!" "pair" p);
    pure "list" (At_least 0)
      ~fn1:(fun a -> Values.cons a nil)
      ~fn2:(fun a b -> Values.cons a (Values.cons b nil))
      array_to_list;
    pure1 "length" (fun v -> of_int (proper_length "length" v));
    pure "append" (At_least 0) ~fn1:Fun.id ~fn2:(append2 "append") (fun args ->
        match Array.length args with
        | 0 -> nil
        | n ->
            let acc = ref args.(n - 1) in
            for i = n - 2 downto 0 do
              acc := append2 "append" args.(i) !acc
            done;
            !acc);
    pure1 "reverse" (fun v ->
        ignore (proper_length "reverse" v);
        rev_onto nil v);
    pure2 "list-tail" (fun v n -> list_tail "list-tail" v (check_int "list-tail" n));
    pure2 "list-ref" (fun v n ->
        match list_tail "list-ref" v (check_int "list-ref" n) with
        | Pair { car; _ } -> car
        | _ -> Values.err "list-ref: index out of range" [ v; n ]);
    pure2 "assq" (search "assq" assoc_gen Values.eq);
    pure2 "assv" (search "assv" assoc_gen Values.eqv);
    pure2 "assoc" (search "assoc" assoc_gen Values.equal);
    pure2 "memq" (search "memq" member_gen Values.eq);
    pure2 "memv" (search "memv" member_gen Values.eqv);
    pure2 "member" (search "member" member_gen Values.equal);
    (* -- symbols, strings, chars ------------------------------------- *)
    pure1 "symbol->string" (fun v ->
        Str (Bytes.of_string (check_sym "symbol->string" v)));
    pure1 "string->symbol" (fun v ->
        sym (Bytes.to_string (check_str "string->symbol" v)));
    (let named v = gensym (check_sym "gensym" v) in
     pure "gensym" (At_least 0) ~fn1:named (fun args ->
         if Array.length args > 0 then named args.(0) else gensym "g"));
    pure1 "string-length" (fun v ->
        of_int (Bytes.length (check_str "string-length" v)));
    pure "string-append" (At_least 0)
      ~fn1:(fun a -> Str (Bytes.copy (check_str "string-append" a)))
      ~fn2:(fun a b ->
        let a = check_str "string-append" a in
        Str (Bytes.cat a (check_str "string-append" b)))
      (fun args ->
        let buf = Buffer.create 16 in
        Array.iter
          (fun v -> Buffer.add_bytes buf (check_str "string-append" v))
          args;
        Str (Buffer.to_bytes buf));
    pure2 "string-ref" (fun s i ->
        let s = check_str "string-ref" s and i = check_int "string-ref" i in
        if i < 0 || i >= Bytes.length s then
          Values.err "string-ref: index out of range" [ of_int i ];
        Char (Bytes.get s i));
    pure "string-set!" (Exactly 3)
      (a3 "string-set!" (fun s i c ->
           let s = check_str "string-set!" s
           and i = check_int "string-set!" i
           and c = check_char "string-set!" c in
           if i < 0 || i >= Bytes.length s then
             Values.err "string-set!: index out of range" [ of_int i ];
           Bytes.set s i c;
           void));
    pure "substring" (Exactly 3)
      (a3 "substring" (fun s a b ->
           let s = check_str "substring" s
           and a = check_int "substring" a
           and b = check_int "substring" b in
           if a < 0 || b > Bytes.length s || a > b then
             Values.err "substring: bad range" [ of_int a; of_int b ];
           Str (Bytes.sub s a (b - a))));
    pure2 "string=?" (fun a b ->
        bool_of (Bytes.equal (check_str "string=?" a) (check_str "string=?" b)));
    pure2 "string<?" (fun a b ->
        bool_of (Bytes.compare (check_str "string<?" a) (check_str "string<?" b) < 0));
    pure2 "string>?" (fun a b ->
        bool_of (Bytes.compare (check_str "string>?" a) (check_str "string>?" b) > 0));
    pure1 "string-upcase" (fun v ->
        Str (Bytes.uppercase_ascii (check_str "string-upcase" v)));
    pure1 "string-downcase" (fun v ->
        Str (Bytes.lowercase_ascii (check_str "string-downcase" v)));
    (let make v fill =
       let n = check_int "make-string" v in
       if n < 0 then Values.err "make-string: negative size" [ v ];
       let fill = check_char "make-string" fill in
       Str (alloc "make-string" n (fun n -> Bytes.make n fill))
     in
     pure "make-string" (At_least 1)
       ~fn1:(fun v -> make v (Char ' ')) ~fn2:make (fun args ->
         make args.(0) (if Array.length args > 1 then args.(1) else Char ' ')));
    pure "string" (At_least 0) (fun args ->
        let b = Bytes.create (Array.length args) in
        Array.iteri (fun i c -> Bytes.set b i (check_char "string" c)) args;
        Str b);
    pure1 "string->list" (fun v ->
        let b = check_str "string->list" v in
        bytes_onto b (Bytes.length b - 1) nil);
    pure1 "list->string" (fun v ->
        let b = Bytes.create (proper_length "list->string" v) in
        fill_string b 0 v;
        Str b);
    pure1 "number->string" (fun v ->
        match v with
        | Fixnum | Flo _ -> Str (Bytes.of_string (Values.display_string v))
        | v -> Values.type_error "number->string" "number" v);
    pure1 "string->number" (fun v ->
        let s = Bytes.to_string (check_str "string->number" v) in
        match Sexp.parse_number s with
        | Sexp.Fixnum n -> of_int n
        | Flonum f -> Flo f
        | Fixnum_overflow -> Flo (float_of_string s)
        | Not_a_number -> Bool false);
    pure1 "char->integer" (fun v ->
        of_int (Char.code (check_char "char->integer" v)));
    pure1 "integer->char" (fun v ->
        let n = check_int "integer->char" v in
        if n < 0 || n > 255 then
          Values.err "integer->char: out of range" [ v ];
        Char (Char.chr n));
    pure1 "char-upcase" (fun v -> Char (Char.uppercase_ascii (check_char "char-upcase" v)));
    pure1 "char-downcase" (fun v -> Char (Char.lowercase_ascii (check_char "char-downcase" v)));
    pure1 "char-alphabetic?" (fun v ->
        let c = check_char "char-alphabetic?" v in
        bool_of ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')));
    pure1 "char-numeric?" (fun v ->
        let c = check_char "char-numeric?" v in
        bool_of (c >= '0' && c <= '9'));
    pure1 "char-whitespace?" (fun v ->
        let c = check_char "char-whitespace?" v in
        bool_of (c = ' ' || c = '\t' || c = '\n' || c = '\r'));
    pure2 "char=?" (fun a b ->
        bool_of (check_char "char=?" a = check_char "char=?" b));
    pure2 "char<?" (fun a b ->
        bool_of (check_char "char<?" a < check_char "char<?" b));
    (* -- vectors ------------------------------------------------------ *)
    (let make v fill =
       let n = check_int "make-vector" v in
       if n < 0 then Values.err "make-vector: negative size" [ v ];
       Vec (alloc "make-vector" n (fun n -> Array.make n fill))
     in
     pure "make-vector" (At_least 1)
       ~fn1:(fun v -> make v (of_int 0)) ~fn2:make (fun args ->
         make args.(0) (if Array.length args > 1 then args.(1) else of_int 0)));
    pure "vector" (At_least 0)
      ~fn1:(fun a -> Vec [| a |])
      ~fn2:(fun a b -> Vec [| a; b |])
      (fun args -> Vec (Array.copy args));
    pure1 "vector-length" (fun v ->
        of_int (Array.length (check_vec "vector-length" v)));
    pure2 "vector-ref" (fun v i ->
        let a = check_vec "vector-ref" v and i = check_int "vector-ref" i in
        if i < 0 || i >= Array.length a then
          Values.err "vector-ref: index out of range" [ of_int i ];
        a.(i));
    pure "vector-set!" (Exactly 3)
      (a3 "vector-set!" (fun v i x ->
           let a = check_vec "vector-set!" v and i = check_int "vector-set!" i in
           if i < 0 || i >= Array.length a then
             Values.err "vector-set!: index out of range" [ of_int i ];
           a.(i) <- x;
           void));
    pure1 "vector->list" (fun v -> array_to_list (check_vec "vector->list" v));
    pure1 "list->vector" (fun v ->
        let a = Array.make (proper_length "list->vector" v) void in
        fill_vector a 0 v;
        Vec a);
    pure2 "vector-fill!" (fun v x ->
        Array.fill (check_vec "vector-fill!" v) 0
          (Array.length (check_vec "vector-fill!" v))
          x;
        void);
    (* -- hashtables (eqv-comparable immediate keys) -------------------- *)
    pure "make-hashtable" (Exactly 0) (fun _ -> Tbl (Hashtbl.create 16));
    pure1 "hashtable?" (fun v ->
        bool_of (match v with Tbl _ -> true | _ -> false));
    pure "hashtable-set!" (Exactly 3)
      (a3 "hashtable-set!" (fun t k v ->
           let t = check_tbl "hashtable-set!" t in
           Hashtbl.replace t (check_hkey "hashtable-set!" k) v;
           void));
    pure "hashtable-ref" (Exactly 3)
      (a3 "hashtable-ref" (fun t k default ->
           let t = check_tbl "hashtable-ref" t in
           match Hashtbl.find_opt t (check_hkey "hashtable-ref" k) with
           | Some v -> v
           | None -> default));
    pure2 "hashtable-contains?" (fun t k ->
        let t = check_tbl "hashtable-contains?" t in
        bool_of (Hashtbl.mem t (check_hkey "hashtable-contains?" k)));
    pure2 "hashtable-delete!" (fun t k ->
        let t = check_tbl "hashtable-delete!" t in
        Hashtbl.remove t (check_hkey "hashtable-delete!" k);
        void);
    pure1 "hashtable-size" (fun t ->
        of_int (Hashtbl.length (check_tbl "hashtable-size" t)));
    pure1 "hashtable-keys" (fun t ->
        Hashtbl.fold cons_key (check_tbl "hashtable-keys" t) nil);
    pure1 "hashtable-values" (fun t ->
        Hashtbl.fold cons_value (check_tbl "hashtable-values" t) nil);
    pure1 "hashtable->alist" (fun t ->
        Hashtbl.fold cons_entry (check_tbl "hashtable->alist" t) nil);
    pure1 "hashtable-copy" (fun t ->
        Tbl (Hashtbl.copy (check_tbl "hashtable-copy" t)));
    (* -- output -------------------------------------------------------- *)
    pure "%output-mark" (Exactly 0) (fun _ ->
        of_int (Buffer.length (hooks_out ())));
    pure1 "%output-take" (fun v ->
        let out = hooks_out () in
        let mark = check_int "%output-take" v in
        let len = Buffer.length out in
        if mark < 0 || mark > len then
          Values.err "%output-take: stale mark" [ v ];
        let s = Buffer.sub out mark (len - mark) in
        Buffer.truncate out mark;
        Str (Bytes.of_string s));
    pure1 "display" display_v;
    pure1 "write" write_v;
    pure "newline" (Exactly 0) (fun _ ->
        Buffer.add_char (hooks_out ()) '\n';
        void);
    (* -- misc ----------------------------------------------------------- *)
    pure "void" (Exactly 0) (fun _ -> void);
    pure "%raw-error" (At_least 1) raise_error;
    pure "error" (At_least 1) raise_error;
    pure1 "%values->list" (fun v ->
        match v with
        | Mvals vs -> Values.list_to_value vs
        | v -> Values.cons v nil);
    pure1 "%continuation?" (fun v ->
        bool_of (match v with Cont _ | Hcont _ -> true | _ -> false));
    pure1 "%continuation-one-shot?" (fun v ->
        match v with
        | Cont { one_shot; _ } -> bool_of one_shot
        | Hcont c -> bool_of c.hcont_one_shot
        | v -> Values.type_error "%continuation-one-shot?" "continuation" v);
    pure1 "%continuation-shot?" (fun v ->
        match v with
        | Cont { sr; _ } -> bool_of (Control.is_shot sr)
        | Hcont c -> bool_of c.hcont_shot
        | v -> Values.type_error "%continuation-shot?" "continuation" v);
    pure1 "%continuation-promoted?" (fun v ->
        match v with
        | Cont { sr; _ } ->
            bool_of ((not (Control.is_shot sr)) && Control.is_multi sr)
        | Hcont c -> bool_of (c.hcont_promoted || not c.hcont_one_shot)
        | v -> Values.type_error "%continuation-promoted?" "continuation" v);
    (* -- control specials (handled by the machine loops) ---------------- *)
    special "%call/cc" (Exactly 1) Sp_callcc;
    special "%call/1cc" (Exactly 1) Sp_call1cc;
    ("%dynamic-wind", dw_prim);
    special "apply" (At_least 2) Sp_apply;
    special "values" (At_least 0) Sp_values;
    (* The preemption-timer accessors reach the running machine through
       the hooks, so they stay pure (applied inline, no frame) and the
       prim values stay process-shared.  Outside any run the defaults
       make set a no-op and get read 0 — the oracle's semantics. *)
    pure2 "%set-timer!" (fun ticks handler ->
        (Machine_hooks.current ()).Machine_hooks.set_timer
          (check_int "%set-timer!" ticks)
          handler;
        void);
    pure "%get-timer" (Exactly 0) (fun _ ->
        of_int ((Machine_hooks.current ()).Machine_hooks.get_timer ()));
    special "%stat" (Exactly 1) Sp_stats;
    special "%backtrace" (Exactly 0) Sp_backtrace;
    special "eval" (Exactly 1) Sp_eval;
    pure1 "read-from-string" (fun v ->
        let src = Bytes.to_string (check_str "read-from-string" v) in
        match Sexp.read_all src with
        | [] -> eof
        | d :: _ -> Expander.datum_to_value d
        | exception Sexp.Read_error (msg, _) ->
            Values.err ("read-from-string: " ^ msg) []);
  ]

(* One boxed [Prim] value per primitive, shared by every session: the
   fused-site guards compare the boxed value physically ([gval ==
   ps_guard]), so sessions consuming shared compiled code (the prelude
   image) must see the very same box the image's compile captured. *)
let the_prim_values : (string * value) list =
  List.map (fun (name, p) -> (name, Prim p)) the_prims

let install globals =
  List.iter
    (fun (name, v) -> Globals.define globals name v)
    the_prim_values
