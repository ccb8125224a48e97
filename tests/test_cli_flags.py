"""The CLI's flag table: defaults without flags, and every flag as a config key."""

import argparse

import pytest

from qpfs import cli
from qpfs.errors import ConfigError

from conftest import write_uci_like_files


class TestDefaultDataDir:
    # every other test passes --data-dir; these run where `data/` holds the files
    @pytest.fixture()
    def in_fetched_dir(self, tmp_path, monkeypatch):
        write_uci_like_files(tmp_path / "data", seed=3)    # full size: fetch checks it
        monkeypatch.chdir(tmp_path)

    def test_select_by_name_reads_data(self, capsys, in_fetched_dir):
        code = cli.main(["select", "--name", "german", "--method", "maxrel", "--k", "2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "method = maxrel, k = 2" in out

    def test_fetch_finds_the_file_in_data(self, capsys, in_fetched_dir):
        code = cli.main(["fetch", "--only", "german"])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out == "german: data/german.data\n"


# (subcommand, config key) for every flag of every subcommand in the table;
# a key is the flag's name with "_" for "-", argparse's own dest
FLAG_KEYS = [(command, names[0][2:].replace("-", "_"))
             for command, (_, _, flags) in cli.SUBCOMMANDS.items() for names, _ in flags]


def _value_for(action: argparse.Action) -> tuple[str, list[str]]:
    """(config text, command-line arguments) that set the same value for the flag."""
    flag = action.option_strings[0]
    if action.nargs == 0:                                  # a switch
        return "true", [flag]
    if action.choices is not None:
        value = list(action.choices)[-1]
    else:
        value = {int: "3", float: "0.5", None: "somewhere"}[action.type]
    return str(value), [flag, str(value)]


class TestEveryConfigKey:
    def test_parser_takes_the_table_and_nothing_else(self):
        parser, settings = cli.build_parser()
        built = [(command, key) for command, actions in settings.items() for key in actions]
        assert sorted(built) == sorted(FLAG_KEYS)
        for command, (handler, _, _) in cli.SUBCOMMANDS.items():
            assert vars(parser.parse_args([command]))["func"] is handler

    @pytest.mark.parametrize("command, key", FLAG_KEYS)
    def test_config_key_sets_what_its_flag_sets(self, tmp_path, command, key):
        parser, settings = cli.build_parser()
        text, argv = _value_for(settings[command][key])
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        parsed = vars(parser.parse_args([command, *argv]))
        assert cli.config_options(settings, command, path) == {key: parsed[key]}

    @pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
    def test_keys_only_other_subcommands_take_are_skipped(self, tmp_path, command):
        _, settings = cli.build_parser()
        others = {key for actions in settings.values() for key in actions} - set(
            settings[command])
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{key} = not-converted\n" for key in sorted(others)))
        assert cli.config_options(settings, command, path) == {}

    @pytest.mark.parametrize("key", ["config", "help", "command", "func", "n_bins"])
    def test_key_no_subcommand_takes_is_rejected(self, tmp_path, key):
        _, settings = cli.build_parser()
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n")
        for command in cli.SUBCOMMANDS:
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                cli.config_options(settings, command, path)
