import pytest

from finermoe.config import (
    ConfigError,
    FineRConfig,
    baseline_preset,
    derive,
    expert_component,
    format_config,
    load_config,
    parse_config,
    preset_names,
    validate,
)

BASE = FineRConfig(h=1536, H=8960, G_I=32, R_I=1, G_O=2, R_O=2, T_I=1)

# (G_I, G_O) -> expert count at R_I=1, R_O=2, published alongside the base
# configuration; activated experts are G_O * T_I with T_I=1.
EXPERT_COUNT_TABLE = {
    (2, 2): 8, (4, 2): 16, (4, 4): 32, (8, 2): 32, (8, 4): 64,
    (16, 2): 64, (16, 4): 128, (16, 8): 256, (32, 2): 128, (32, 4): 256,
    (32, 8): 512, (64, 2): 256, (64, 4): 512, (64, 8): 1024,
}


class TestDerive:
    def test_base_config(self):
        d = derive(BASE)
        assert (d.H_e, d.h_e, d.N) == (280, 768, 128)
        assert d.n_active == 2

    def test_degenerate_single_expert(self):
        d = derive(FineRConfig(h=10, H=20))
        assert (d.H_e, d.h_e, d.N) == (20, 10, 1)

    def test_largest_grid_point(self):
        d = derive(FineRConfig(h=1536, H=8960, G_I=64, R_I=1, G_O=8, R_O=2, T_I=1))
        assert d.N == 1024

    def test_expert_count_table(self):
        for (g_i, g_o), n in EXPERT_COUNT_TABLE.items():
            cfg = FineRConfig(h=1536, H=8960, G_I=g_i, R_I=1, G_O=g_o, R_O=2, T_I=1)
            d = derive(cfg)
            assert d.N == n
            assert d.n_active == g_o

    def test_group_layout_identities(self):
        cfg = FineRConfig(h=24, H=24, G_I=2, R_I=3, G_O=2, R_O=2, T_I=1)
        d = derive(cfg)
        assert d.n_groups * d.group_size == d.N
        assert d.n_active <= d.N
        for k in range(d.N):
            assert expert_component(cfg, k) == k // (d.group_size * cfg.R_O)


class TestValidate:
    def test_non_dividing_g_i(self):
        with pytest.raises(ConfigError, match="G_I must divide H"):
            validate(FineRConfig(h=1536, H=8960, G_I=3))

    def test_non_dividing_g_o(self):
        with pytest.raises(ConfigError, match="G_O must divide h"):
            validate(FineRConfig(h=10, H=20, G_O=3))

    def test_t_i_exceeds_group(self):
        with pytest.raises(ConfigError, match="T_I exceeds group size"):
            validate(FineRConfig(h=8, H=8, G_I=1, R_I=2, T_I=3))

    def test_nonpositive_field(self):
        with pytest.raises(ConfigError, match="R_O must be >= 1"):
            validate(FineRConfig(h=8, H=8, R_O=0))

    def test_bad_router_mode(self):
        with pytest.raises(ConfigError, match="router_mode"):
            validate(FineRConfig(h=8, H=8, router_mode="both"))

    def test_base_config_is_valid(self):
        validate(BASE)


class TestPresets:
    def test_c32a2(self):
        cfg = baseline_preset("C32A2")
        assert (cfg.G_I, cfg.R_I, cfg.G_O, cfg.R_O) == (1, 32, 1, 1)
        d = derive(cfg)
        assert d.N == 32 and d.n_active == 2

    def test_s16a4(self):
        cfg = baseline_preset("S16A4")
        assert (cfg.G_I, cfg.R_I, cfg.G_O, cfg.R_O) == (16, 1, 1, 1)
        assert not cfg.share_expert
        d = derive(cfg)
        assert d.N == 16 and d.n_active == 4

    def test_nvshard(self):
        cfg = baseline_preset("NVShard")
        assert (cfg.G_I, cfg.R_I, cfg.G_O, cfg.R_O) == (8, 8, 1, 1)
        d = derive(cfg)
        assert d.N == 64 and d.n_active == 8

    def test_base_preset(self):
        cfg = baseline_preset("FineRMoE-base")
        d = derive(cfg)
        assert d.N == 128 and d.n_active == 2

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ConfigError) as exc:
            baseline_preset("X99")
        for name in preset_names():
            assert name in str(exc.value)

    def test_presets_accept_toy_dims(self):
        for name in preset_names():
            d = derive(baseline_preset(name, h=64, H=128))
            assert d.N >= 1


class TestConfigFile:
    def test_round_trip(self):
        text = format_config(BASE)
        assert parse_config(text) == BASE

    def test_round_trip_nondefault_flags(self):
        cfg = FineRConfig(h=8, H=8, router_mode="separate", share_expert=False, concat_proj=True)
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "text, message",
        [
            ("h = 8\nH = 8\nshare_expert = yes\n", "line 3: share_expert must be true or false, got 'yes'"),
            ("h = 8\nH = 8\nconcat_proj = True\n", "line 3: concat_proj must be true or false, got 'True'"),
            ("h = eight\nH = 8\n", "line 1: h must be an integer, got 'eight'"),
            ("h = 8\nH = 8.0\n", "line 2: H must be an integer, got '8.0'"),
            ("h = 8\nH = 8\nbogus = 1\n", "line 3: unknown key 'bogus'"),
        ],
        ids=["bool-yes", "bool-capital", "int-word", "int-float", "unknown-key"],
    )
    def test_bad_value_names_its_line_and_key(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="^missing required keys: h, H$"):
            parse_config("G_I = 2\n")

    def test_duplicate_key_names_its_line(self):
        with pytest.raises(ConfigError, match=r"line 4: duplicate key 'G_I'"):
            parse_config("h = 8\nH = 8\nG_I = 2\nG_I = 4\n")

    def test_non_utf8_file_names_its_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"h = 8\nH = 8\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"line 3: not valid UTF-8"):
            load_config(p)

    def test_comments_and_blanks_ignored(self):
        assert parse_config("# cfg\n\nh = 8\nH = 8\n") == FineRConfig(h=8, H=8)
