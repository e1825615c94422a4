#!/usr/bin/env python3
"""Generate the committed test fixtures.

Everything under fixtures/ is produced here so it can be regenerated from
scratch:

- synthetic corpora (Spanish CoNLL-U with multiword tokens, English
  CoNLL-U with ranges/empty nodes/casing traps, Basque-style TSV)
- pinned_stats.tsv with token/sentence counts derived from the
  construction word lists themselves, independent of the parsers
- golden prompt texts assembled literally here, independent of the
  renderer, plus the example data needed to re-render them
- pinned request fingerprints
- a fully recorded response cache for the replay experiment, produced by
  perfbench/synth.SimulatedChatModel (the seeded simulated chat model
  that also records the benchmark's LLM caches) run through the real
  gateway, and the expected report files a replay of that experiment
  must reproduce; a change to that model's draws changes the cache, so
  the fixtures must then be regenerated
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))  # synth: the benchmark's simulated chat model

import synth  # noqa: E402
from lemmabench import experiment, prompt  # noqa: E402
from lemmabench.corpus import ingest_conllu, ingest_tsv  # noqa: E402
from lemmabench.gateway import (  # noqa: E402
    RECORD,
    LlmGateway,
    ProviderConfig,
    ResponseCache,
    request_fingerprint,
)

# ---------------------------------------------------------------------------
# Synthetic corpora.  Each sentence is a list of items:
#   ("tok", form, lemma, upos)           one syntactic word
#   ("mwt", surface, [(form, lemma, upos), ...])   contraction + its words
#   ("empty",)                           an empty node marker (English only)
# Token counts for the pins are computed from these lists directly.
# ---------------------------------------------------------------------------


def tok(form, lemma, upos="X"):
    return ("tok", form, lemma, upos)


ES_NOUNS = [
    ("niño", "niño"), ("niños", "niño"), ("casa", "casa"), ("casas", "casa"),
    ("perro", "perro"), ("perros", "perro"), ("gata", "gato"), ("gatas", "gato"),
    ("flor", "flor"), ("flores", "flor"), ("ciudad", "ciudad"), ("ciudades", "ciudad"),
    ("jardín", "jardín"), ("jardines", "jardín"), ("profesor", "profesor"),
    ("profesores", "profesor"), ("premio", "premio"), ("premios", "premio"),
]
ES_VERBS = [
    ("come", "comer"), ("comen", "comer"), ("comió", "comer"), ("comieron", "comer"),
    ("habla", "hablar"), ("hablan", "hablar"), ("habló", "hablar"), ("hablaron", "hablar"),
    ("canta", "cantar"), ("cantan", "cantar"), ("cantó", "cantar"),
    ("vive", "vivir"), ("viven", "vivir"), ("vivió", "vivir"),
    ("corre", "correr"), ("corren", "correr"), ("corrió", "correr"),
]
ES_ADJS = [
    ("rojo", "rojo"), ("rojos", "rojo"), ("roja", "rojo"), ("rojas", "rojo"),
    ("pequeño", "pequeño"), ("pequeños", "pequeño"), ("grande", "grande"),
    ("grandes", "grande"),
]
ES_DETS = [("el", "el"), ("la", "la"), ("los", "el"), ("las", "la"),
           ("un", "un"), ("una", "una")]
ES_PROPN = [("María", "María"), ("Juan", "Juan"), ("Madrid", "Madrid"),
            ("Venecia", "Venecia")]
ES_ADPS = [("en", "en"), ("de", "de"), ("con", "con")]

MWT_DEL = ("mwt", "del", [("de", "de", "ADP"), ("el", "el", "DET")])
MWT_AL = ("mwt", "al", [("a", "a", "ADP"), ("el", "el", "DET")])


def build_es_sentences(rng: random.Random, count: int = 80):
    def det():
        return tok(*rng.choice(ES_DETS), "DET")

    def noun():
        return tok(*rng.choice(ES_NOUNS), "NOUN")

    def verb():
        return tok(*rng.choice(ES_VERBS), "VERB")

    def adj():
        return tok(*rng.choice(ES_ADJS), "ADJ")

    def propn():
        return tok(*rng.choice(ES_PROPN), "PROPN")

    def adp():
        return tok(*rng.choice(ES_ADPS), "ADP")

    dot = tok(".", ".", "PUNCT")
    comma = tok(",", ",", "PUNCT")
    y = tok("y", "y", "CCONJ")

    templates = [
        lambda: [det(), noun(), verb(), adp(), det(), noun(), dot],
        lambda: [propn(), verb(), det(), noun(), y, det(), noun(), dot],
        lambda: [det(), noun(), adj(), verb(), adp(), det(), noun(), dot],
        lambda: [det(), noun(), verb(), MWT_DEL, noun(), dot],
        lambda: [propn(), verb(), adp(), det(), noun(), adp(), propn(), dot],
        lambda: [det(), noun(), comma, det(), noun(), y, det(), noun(), verb(), dot],
        lambda: [det(), noun(), verb(), MWT_AL, noun(), adj(), dot],
        lambda: [propn(), y, propn(), verb(), adp(), det(), noun(), dot],
    ]
    return [templates[i % len(templates)]() for i in range(count)]


EN_SENTENCES = [
    # (items, insert_empty_node_after_word_index or None)
    [tok("The", "the"), tok("dogs", "dog"), tok("ran", "run"), tok("in", "in"),
     tok("the", "the"), tok("park", "park"), tok(".", ".")],
    [tok("I", "I"), tok("went", "go"), tok("to", "to"), tok("London", "London"),
     tok(".", ".")],
    [tok("The", "the"), tok("children", "child"), ("mwt", "don't", [
        ("do", "do", "AUX"), ("n't", "not", "PART")]), tok("run", "run"), tok(".", ".")],
    [tok("NASA", "NASA"), tok("launches", "launch"), tok("rockets", "rocket"),
     tok(".", ".")],
    [tok("Cats", "cat"), tok("and", "and"), tok("dogs", "dog"), ("empty",),
     tok("friends", "friend"), tok(".", ".")],
    [tok("She", "she"), tok("was", "be"), tok("running", "run"), tok("quickly", "quickly"),
     tok(".", ".")],
    [tok("The", "the"), tok("cats", "cat"), tok("ate", "eat"), tok("the", "the"),
     tok("mice", "mouse"), tok(".", ".")],
    [tok("Paris", "Paris"), tok("is", "be"), tok("a", "a"), tok("city", "city"),
     tok(".", ".")],
    [tok("I", "I"), ("mwt", "don't", [("do", "do", "AUX"), ("n't", "not", "PART")]),
     tok("know", "know"), tok(".", ".")],
    [tok("Dogs", "dog"), tok("bark", "bark"), ("empty",), tok("loudly", "loudly"),
     tok(".", ".")],
]


def build_en_sentences(rng: random.Random, count: int = 30):
    base = EN_SENTENCES
    return [base[i % len(base)] for i in range(count)]


EU_VOCAB_SENTENCES = [
    [("Etxea", "etxe"), ("handia", "handi"), ("da", "izan"), (".", ".")],
    [("Gizonak", "gizon"), ("liburua", "liburu"), ("ikusi", "ikusi"), ("du", "ukan"),
     (".", ".")],
    [("Miren", "Miren"), ("mendira", "mendi"), ("joan", "joan"), ("da", "izan"),
     (".", ".")],
    [("Jon", "Jon"), ("kalean", "kale"), ("dago", "egon"), (".", ".")],
    [("Liburuak", "liburu"), ("berriak", "berri"), ("dira", "izan"), (".", ".")],
    [("Gizona", "gizon"), ("etxean", "etxe"), ("zegoen", "egon"), (".", ".")],
    [("Miren", "Miren"), ("eta", "eta"), ("Jon", "Jon"), ("Bilbon", "Bilbo"),
     ("daude", "egon"), (".", ".")],
    [("Etxeak", "etxe"), ("politak", "polit"), ("dira", "izan"), (".", ".")],
    [("Gizonak", "gizon"), ("egingo", "egin"), ("du", "ukan"), (".", ".")],
    [("Liburua", "liburu"), ("mahaian", "mahai"), ("dago", "egon"), (".", ".")],
]


def build_eu_sentences(rng: random.Random, count: int = 40):
    return [EU_VOCAB_SENTENCES[i % len(EU_VOCAB_SENTENCES)] for i in range(count)]


def capitalize_first(items):
    """Uppercase the first letter of the first surface form in the sentence."""
    out = []
    done = False
    for item in items:
        if done or item[0] == "empty":
            out.append(item)
            continue
        if item[0] == "tok":
            _, form, lemma, upos = item
            out.append(("tok", form[0].upper() + form[1:], lemma, upos))
        else:
            _, surface, words = item
            (f0, l0, u0), rest = words[0], words[1:]
            out.append(("mwt", surface[0].upper() + surface[1:],
                        [(f0[0].upper() + f0[1:], l0, u0)] + list(rest)))
        done = True
    return out


def syntactic_words(items):
    """(form, lemma) pairs as a parser must see them; empty nodes excluded."""
    pairs = []
    for item in items:
        if item[0] == "tok":
            pairs.append((item[1], item[2]))
        elif item[0] == "mwt":
            pairs.extend((f, l) for f, l, _ in item[2])
    return pairs


def conllu_text(sentences, id_prefix):
    lines = []
    for n, items in enumerate(sentences, start=1):
        pairs = syntactic_words(items)
        lines.append(f"# sent_id = {id_prefix}-{n}")
        lines.append("# text = " + " ".join(f for f, _ in pairs))
        i = 0
        for item in items:
            if item[0] == "empty":
                lines.append(f"{i}.1\t_\t_\t_\t_\t_\t_\t_\t0:root\t_")
                continue
            if item[0] == "mwt":
                lines.append(f"{i + 1}-{i + len(item[2])}\t{item[1]}\t_\t_\t_\t_\t_\t_\t_\t_")
                for form, lemma, upos in item[2]:
                    i += 1
                    head, rel = (0, "root") if i == 1 else (1, "dep")
                    lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_")
                continue
            _, form, lemma, upos = item
            i += 1
            head, rel = (0, "root") if i == 1 else (1, "dep")
            lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n"


def tsv_text(sentences):
    lines = []
    for pairs in sentences:
        lines.extend(f"{form}\t{lemma}" for form, lemma in pairs)
        lines.append("")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Golden prompts, assembled literally (never via the renderer).
# ---------------------------------------------------------------------------

HEADER_ES = (
    "Your task is to lemmatize a sentence in Spanish. You will be given a sentence, "
    "where each word starts from the new line. You need to provide for each word in "
    "the given sentence its dictionary form (lemma)."
)
INSTRUCTION_LINES = [
    "Instructions:",
    "1. Copy the word exactly as it is, and provide its lemma.",
    "2. **Process Every Word**: Lemmatize **each word** in the sentence. "
    "Do not omit, change, or remove any word.",
    "3. **Handle Spelling Errors**: If a word is misspelled, retain the original "
    "spelling as the initial word, but lemmatize it to the closest dictionary form.",
    "4. **Proper Nouns**: Proper nouns should retain their capitalization.",
    "5. **Punctuation**: Include punctuation marks in the output, using the mark "
    "itself as the lemma.",
    "6. **Part-of-Speech**: Lemmatize words based on their part of speech (POS) "
    "(e.g., verbs to their infinitive form, nouns to singular form).",
    "7. **Articles**: Use the masculine singular form for articles.",
    "8. **Multi-Word Expressions**: If an input contains multiple words, process "
    "each word separately.",
]
FORMAT_LINES = [
    "Provide the output in **TSV format** (Tab-Separated Values) with the format:",
    "`initial word\tlemma'",
]
CLOSING_LINE = (
    "Answer with the required output only, without extra spaces, quotation marks, "
    "or comments."
)
EXAMPLE_INTRO = "For example, for the sentence:"
EXAMPLE_OUT = "The desired output is:"

GOLDEN_GATE_WORDS = [
    "El", "Parque", "Golden", "Gate", "ofrece", "un", "jardín", "botánico", ",",
    "un", "planetario", ",", "y", "un", "jardín", "japonés", ".",
]
TINA_WORDS = [
    "Tina", "Anselmi", "se", "ocupó", "sobre", "todo", "de", "los", "derechos",
    "de", "los", "trabajadores", "textiles", "y", "los", "profesores", ".",
]
TINA_LEMMAS = [
    "Tina", "Anselmi", "el", "ocupar", "sobre", "todo", "de", "el", "derecho",
    "de", "el", "trabajador", "textil", "y", "el", "profesor", ".",
]
VENICE_WORDS = [
    "El", "festival", "de", "Venecia", "cerró", "hoy", "con", "la", "entrega",
    "de", "los", "premios", "que", "coronaron", "a", "el", "realizador",
    "Alexander", "Sokurov", "y", "a", "el", "actor", "Michael", "Fassbender", ".",
]
NINOS_WORDS = ["Los", "niños", "comieron", "en", "el", "jardín", "."]
NINOS_LEMMAS = ["el", "niño", "comer", "en", "el", "jardín", "."]


def example_block(words, lemmas):
    return words + [EXAMPLE_OUT] + [f"{w}\t{l}" for w, l in zip(words, lemmas)]


def word_list_block(words):
    return ["Sentence:", "[" + ", ".join("'" + w + "'" for w in words) + "]"]


def sentence_string_block(words):
    return [f'Sentence: "{" ".join(words)}"']


def build_goldens() -> dict[str, str]:
    goldens = {}
    goldens["basic_0shot_sentence_string"] = "\n".join(
        [HEADER_ES] + FORMAT_LINES + sentence_string_block(GOLDEN_GATE_WORDS)
        + [CLOSING_LINE]
    )
    goldens["full_0shot_sentence_string"] = "\n".join(
        [HEADER_ES] + INSTRUCTION_LINES + FORMAT_LINES
        + sentence_string_block(GOLDEN_GATE_WORDS) + [CLOSING_LINE]
    )
    goldens["basic_1shot_word_list"] = "\n".join(
        [f"{HEADER_ES} {EXAMPLE_INTRO}"] + example_block(TINA_WORDS, TINA_LEMMAS)
        + FORMAT_LINES + word_list_block(VENICE_WORDS) + [CLOSING_LINE]
    )
    goldens["full_1shot_word_list"] = "\n".join(
        [HEADER_ES] + INSTRUCTION_LINES[:-1]
        + [f"{INSTRUCTION_LINES[-1]} {EXAMPLE_INTRO}"]
        + example_block(TINA_WORDS, TINA_LEMMAS)
        + FORMAT_LINES + word_list_block(VENICE_WORDS) + [CLOSING_LINE]
    )
    goldens["basic_2shot_word_list"] = "\n".join(
        [f"{HEADER_ES} {EXAMPLE_INTRO}"] + example_block(TINA_WORDS, TINA_LEMMAS)
        + [EXAMPLE_INTRO] + example_block(NINOS_WORDS, NINOS_LEMMAS)
        + FORMAT_LINES + word_list_block(VENICE_WORDS) + [CLOSING_LINE]
    )
    return goldens


REPLAY_CONFIG = {
    "name": "es-replay",
    "language": "Spanish",
    "corpus": {"path": "../corpora/es_fix.conllu", "format": "conllu", "name": "es_fix"},
    "split": {"train": 40, "dev": 15, "test": 25, "rule": "first-n", "seed": 0},
    "baseline": {"max_suffix_len": 5},
    "systems": [
        {"name": "baseline", "kind": "baseline"},
        {"name": "llm-basic-4shot", "kind": "llm",
         "prompt": {"template": "basic", "input_mode": "word-list", "shots": 4,
                    "selection": "most-errors", "seed": 0}},
        {"name": "llm-full-0shot", "kind": "llm",
         "prompt": {"template": "full", "input_mode": "sentence-string", "shots": 0,
                    "selection": "random", "seed": 1}},
    ],
    "provider": {"base_url": "http://replay.invalid/v1", "model": "sim-chat-1",
                 "api_key_env": "LEMMABENCH_API_KEY", "temperature": 1.0,
                 "top_p": 1.0, "max_retries": 0, "retry_backoff": 0.0},
    "runs": 3,
    "parallelism": 4,
    "cache_dir": "cache",
    "cache_mode": "replay",
    "out_dir": "out",
    "scoring": {"policy": "strict", "alpha": 0.05, "mcnemar_run": 0},
    "comparisons": [["baseline", "llm-basic-4shot"],
                    ["baseline", "llm-full-0shot"],
                    ["llm-basic-4shot", "llm-full-0shot"]],
}


def forbidden_transport(config, prompt_text):
    raise AssertionError("replay run attempted a network call")


def record_replay_cache(cfg: experiment.ExperimentConfig, cache_dir: Path) -> int:
    """Run ingest through train-baseline of cfg, then record every LLM
    request of it into cache_dir; returns the number of responses logged.

    The simulated model answers with the test split's gold lemmas.  Requests
    go one at a time, system by system and run by run, so the log's record
    order is fixed.
    """
    experiment.run_ingest(cfg)
    splits = experiment.run_split(cfg)
    experiment.run_induce(cfg)
    experiment.run_train_baseline(cfg)

    dev, test = splits["dev"], splits["test"]
    sim = synth.SimulatedChatModel({s.wordforms: s.lemmas for s in test.sentences})
    cache = ResponseCache(cache_dir)
    recorder = LlmGateway(cfg.provider, cache, mode=RECORD, transport=sim)
    with synth.run_index_hook(LlmGateway):
        for system in cfg.systems:
            if system.kind != "llm":
                continue
            examples = experiment.select_system_examples(cfg, system, dev)
            prompts = [prompt.render_prompt(system.prompt, examples, s)
                       for s in test.sentences]
            for run in range(cfg.runs):
                for p in prompts:
                    recorder.complete(p, run_index=run)
    cache.close()
    sim.check_hooked()
    return len(cache)


def make_replay_fixture():
    replay_dir = FIXTURES / "replay"
    if (replay_dir / "cache").exists():
        shutil.rmtree(replay_dir / "cache")
    if (replay_dir / "expected").exists():
        shutil.rmtree(replay_dir / "expected")
    replay_dir.mkdir(parents=True, exist_ok=True)
    config_path = replay_dir / "config.json"
    config_path.write_text(json.dumps(REPLAY_CONFIG, indent=2, ensure_ascii=False) + "\n",
                           "utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        cfg = experiment.load_config(config_path, out_dir=tmp)
        print(f"recorded {record_replay_cache(cfg, replay_dir / 'cache')} responses")

        # Replay through the real pipeline to freeze the expected reports.
        experiment.run_predictions(cfg, transport=forbidden_transport)
        experiment.run_score(cfg)
        experiment.run_compare(cfg)
        experiment.run_report(cfg)

        expected = replay_dir / "expected"
        expected.mkdir()
        for name in ("runs", "scores", "mcnemar", "report"):
            shutil.copyfile(cfg.path(name), expected / cfg.path(name).name)

        diag_dir = FIXTURES / "diagnostics"
        diag_dir.mkdir(exist_ok=True)
        keys = {"system": experiment.BASELINE, "split": cfg.split_name("dev"), "run": 0}
        shutil.copyfile(cfg.path("diagnostics", **keys), diag_dir / "es_fix-dev.diag.json")


def main():
    rng = random.Random(20240817)
    (FIXTURES / "corpora").mkdir(parents=True, exist_ok=True)

    es = [capitalize_first(s) for s in build_es_sentences(rng)]
    en = build_en_sentences(rng)
    eu = build_eu_sentences(rng)
    (FIXTURES / "corpora" / "es_fix.conllu").write_text(conllu_text(es, "es-fix"), "utf-8")
    (FIXTURES / "corpora" / "en_fix.conllu").write_text(conllu_text(en, "en-fix"), "utf-8")
    (FIXTURES / "corpora" / "eu_fix.tsv").write_text(tsv_text(eu), "utf-8")

    # Pins from the construction lists (not from the parsers).
    es_counts = [len(syntactic_words(s)) for s in es]
    en_counts = [len(syntactic_words(s)) for s in en]
    eu_counts = [len(s) for s in eu]
    pin_rows = [
        ("es_fix", len(es_counts), sum(es_counts)),
        ("es_fix-train", 40, sum(es_counts[:40])),
        ("es_fix-dev", 15, sum(es_counts[40:55])),
        ("es_fix-test", 25, sum(es_counts[55:80])),
        ("en_fix", len(en_counts), sum(en_counts)),
        ("eu_fix", len(eu_counts), sum(eu_counts)),
    ]
    pin_lines = ["# columns = corpus\tsentences\ttokens"]
    pin_lines += [f"{name}\t{sents}\t{toks}" for name, sents, toks in pin_rows]
    (FIXTURES / "pinned_stats.tsv").write_text("\n".join(pin_lines) + "\n", "utf-8")

    # Cross-check the pins against the real parsers before committing them.
    parsed_es = ingest_conllu(FIXTURES / "corpora" / "es_fix.conllu")
    parsed_en = ingest_conllu(FIXTURES / "corpora" / "en_fix.conllu")
    parsed_eu = ingest_tsv(FIXTURES / "corpora" / "eu_fix.tsv")
    assert (sum(len(s) for s in parsed_es.sentences), len(parsed_es)) == \
        (pin_rows[0][2], pin_rows[0][1])
    assert (sum(len(s) for s in parsed_en.sentences), len(parsed_en)) == \
        (pin_rows[4][2], pin_rows[4][1])
    assert (sum(len(s) for s in parsed_eu.sentences), len(parsed_eu)) == \
        (pin_rows[5][2], pin_rows[5][1])

    prompts_dir = FIXTURES / "prompts"
    prompts_dir.mkdir(exist_ok=True)
    for name, text in build_goldens().items():
        (prompts_dir / f"{name}.txt").write_text(text, "utf-8")
    (prompts_dir / "examples.json").write_text(json.dumps({
        "tina": {"words": TINA_WORDS, "lemmas": TINA_LEMMAS},
        "ninos": {"words": NINOS_WORDS, "lemmas": NINOS_LEMMAS},
        "golden_gate_words": GOLDEN_GATE_WORDS,
        "venice_words": VENICE_WORDS,
    }, ensure_ascii=False, indent=2) + "\n", "utf-8")

    pins = [
        ("sim-chat-1", 1.0, 1.0, 0, "hello world"),
        ("sim-chat-1", 1.0, 1.0, 1, "hello world"),
        ("gpt-4o-mini", 0.2, 0.9, 0, "Lemmatize:\ndogs"),
    ]
    fp_lines = ["# columns = model\ttemperature\ttop_p\trun\tprompt\tfingerprint"]
    for model, temp, top_p, run, text in pins:
        cfg = ProviderConfig(model=model, temperature=temp, top_p=top_p)
        fp = request_fingerprint(cfg, text, run)
        fp_lines.append(f"{model}\t{temp}\t{top_p}\t{run}\t{text!r}\t{fp}")
    (FIXTURES / "fingerprints.tsv").write_text("\n".join(fp_lines) + "\n", "utf-8")

    make_replay_fixture()
    print("fixtures written to", FIXTURES)


if __name__ == "__main__":
    main()
