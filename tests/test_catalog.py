"""Catalog entries, config document loading, and validation errors."""

import pytest
import yaml

from spatialperf import (
    BUILTIN_DEVICES,
    BUILTIN_MODELS,
    BUILTIN_QUANTS,
    DeviceSpec,
    InputError,
    InvalidValueError,
    MissingFieldError,
    ModelSpec,
    Phase,
    PhaseWorkload,
    QuantScheme,
    Residency,
    UnknownFieldError,
    get_device,
    get_model,
    get_quant,
    load_device_spec,
    load_model_spec,
    load_quant_scheme,
    total_compute_power,
)


class TestModelSpec:
    def test_head_dim(self, gpt2):
        assert gpt2.head_dim == 64

    @pytest.mark.parametrize("name", sorted(BUILTIN_MODELS))
    def test_document_round_trip(self, name):
        spec = BUILTIN_MODELS[name]
        assert load_model_spec(spec.to_document()) == spec

    def test_heads_must_divide_hidden(self):
        with pytest.raises(InvalidValueError):
            ModelSpec("bad", num_layers=2, num_heads=7,
                      hidden_size=64, ffn_size=128, max_seq_len=16)

    def test_rejects_non_positive_layers(self):
        with pytest.raises(InvalidValueError):
            ModelSpec("bad", num_layers=0, num_heads=2,
                      hidden_size=64, ffn_size=128, max_seq_len=16)

    def test_rejects_bool_field(self):
        with pytest.raises(InvalidValueError):
            ModelSpec("bad", num_layers=True, num_heads=2,
                      hidden_size=64, ffn_size=128, max_seq_len=16)


class TestQuantScheme:
    @pytest.mark.parametrize("name", sorted(BUILTIN_QUANTS))
    def test_document_round_trip(self, name):
        scheme = BUILTIN_QUANTS[name]
        assert load_quant_scheme(scheme.to_document()) == scheme

    def test_word_limit(self):
        with pytest.raises(InvalidValueError):
            QuantScheme(weight_bits=5, activation_bits=8, pack_count=18)

    def test_weight_bits_cap(self):
        with pytest.raises(InvalidValueError):
            QuantScheme(weight_bits=17, activation_bits=16)

    def test_dsp_pack_factor_values(self):
        with pytest.raises(InvalidValueError):
            QuantScheme(weight_bits=8, activation_bits=8, dsp_pack_factor=3)


class TestDeviceSpec:
    @pytest.mark.parametrize("name", sorted(BUILTIN_DEVICES))
    def test_document_round_trip(self, name):
        spec = BUILTIN_DEVICES[name]
        assert load_device_spec(spec.to_document()) == spec

    def test_max_width(self, u280):
        assert u280.max_width == 72

    def test_widths_must_ascend(self, u280):
        doc = u280.to_document()
        doc["sram_widths"] = [9, 4, 18]
        with pytest.raises(InvalidValueError):
            load_device_spec(doc)

    def test_zero_dsp_allowed(self, u280):
        doc = u280.to_document()
        doc["dsp_count"] = 0
        spec = load_device_spec(doc)
        assert total_compute_power(spec, get_quant("w4a8")) == 0


class TestDocumentErrors:
    def test_unknown_field(self, gpt2):
        doc = gpt2.to_document()
        doc["layersss"] = 3
        with pytest.raises(UnknownFieldError):
            load_model_spec(doc)

    def test_missing_field(self, gpt2):
        doc = gpt2.to_document()
        del doc["ffn_size"]
        with pytest.raises(MissingFieldError):
            load_model_spec(doc)

    def test_default_fields_optional(self):
        scheme = load_quant_scheme({"weight_bits": 8, "activation_bits": 8})
        assert scheme.pack_count == 1
        assert scheme.dsp_pack_factor == 1

    def test_file_round_trip(self, tmp_path, gpt2):
        path = tmp_path / "m.yaml"
        path.write_text(yaml.safe_dump(gpt2.to_document()))
        assert load_model_spec(path) == gpt2

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_model_spec(tmp_path / "nope.yaml")

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(InputError):
            load_model_spec(path)


class TestLookup:
    def test_builtin_names(self):
        assert get_model("gpt2").hidden_size == 1024
        assert get_device("u280").dsp_count == 9024
        assert get_quant("w4a8").pack_count == 18

    def test_unknown_name_lists_known(self):
        with pytest.raises(InputError, match="unknown model 'nosuch'"):
            get_model("nosuch")

    def test_env_dir_extends_catalog(self, tmp_path, monkeypatch, gpt2):
        doc = gpt2.to_document()
        doc["name"] = "gpt2-wide"
        doc["hidden_size"] = 2048
        doc["num_heads"] = 16
        (tmp_path / "wide.yaml").write_text(yaml.safe_dump(doc))
        monkeypatch.setenv("SPATIALPERF_MODELS", str(tmp_path))
        assert get_model("gpt2-wide").hidden_size == 2048
        assert get_model("gpt2") == gpt2

    def test_env_dir_overrides_builtin(self, tmp_path, monkeypatch, gpt2):
        doc = gpt2.to_document()
        doc["num_layers"] = 48
        (tmp_path / "gpt2.yaml").write_text(yaml.safe_dump(doc))
        monkeypatch.setenv("SPATIALPERF_MODELS", str(tmp_path))
        assert get_model("gpt2").num_layers == 48

    def test_env_quant_keyed_by_stem(self, tmp_path, monkeypatch):
        (tmp_path / "w3a8.yaml").write_text(
            yaml.safe_dump({"weight_bits": 3, "activation_bits": 8, "pack_count": 24})
        )
        monkeypatch.setenv("SPATIALPERF_QUANTS", str(tmp_path))
        assert get_quant("w3a8").pack_count == 24

    def test_env_not_a_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPATIALPERF_DEVICES", str(tmp_path / "missing"))
        with pytest.raises(InputError):
            get_device("u280")


class TestPhaseWorkload:
    def test_string_coercion(self):
        w = PhaseWorkload("decode", seq_len=0, weights_resident="on_chip")
        assert w.phase is Phase.DECODE
        assert w.weights_resident is Residency.ON_CHIP

    def test_prefill_needs_positive_seq_len(self):
        with pytest.raises(InvalidValueError):
            PhaseWorkload(Phase.PREFILL, seq_len=0)

    def test_decode_allows_empty_context(self):
        assert PhaseWorkload(Phase.DECODE, seq_len=0).seq_len == 0

    def test_bad_phase_string(self):
        with pytest.raises(ValueError):
            PhaseWorkload("warmup", seq_len=1)


class TestComputePower:
    def test_u280_int4(self, u280, w4a8):
        assert total_compute_power(u280, w4a8) == 18048

    def test_u280_int16(self, u280):
        assert total_compute_power(u280, get_quant("w16a16")) == 9024

    def test_pack_factor_scales_linearly(self, u280, w4a8, w8a8):
        assert total_compute_power(u280, w4a8) == total_compute_power(u280, w8a8)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("field", ["freq", "mac_per_dsp_base", "offchip_bandwidth"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_device_rejects(self, u280, field, value):
        doc = {**u280.to_document(), field: value}
        with pytest.raises(InvalidValueError, match="must be finite"):
            load_device_spec(doc)

    def test_yaml_reads_exponent_floats(self, tmp_path, u280):
        doc = {**u280.to_document(), "freq": "@freq", "offchip_bandwidth": "@bw"}
        text = yaml.safe_dump(doc).replace("'@freq'", "2.2e8").replace("'@bw'", "1e12")
        path = tmp_path / "dev.yaml"
        path.write_text(text)
        spec = load_device_spec(path)
        assert (spec.freq, spec.offchip_bandwidth) == (2.2e8, 1e12)
